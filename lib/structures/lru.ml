(* Generic LRU tracker: hashtable + intrusive recency list.

   The page cache uses one of these for global page reclaim. Unlike a cache
   that owns its values, this structure only tracks recency: the caller
   decides when to evict (e.g. skipping pages that are dirty or pinned). *)

type ('k, 'v) t = {
  table : ('k, ('k * 'v) Dlist.node) Hashtbl.t;
  order : ('k * 'v) Dlist.t; (* front = least recent, back = most recent *)
}

let create ?(initial_size = 64) () =
  { table = Hashtbl.create initial_size; order = Dlist.create () }

let length t = Hashtbl.length t.table
let mem t key = Hashtbl.mem t.table key

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some node -> Some (snd (Dlist.value node))

let touch t key =
  match Hashtbl.find_opt t.table key with
  | None -> false
  | Some node ->
    Dlist.move_to_back t.order node;
    true

let add t key value =
  (match Hashtbl.find_opt t.table key with
  | Some node ->
    Dlist.remove t.order node;
    Hashtbl.remove t.table key
  | None -> ());
  let node = Dlist.make_node (key, value) in
  Dlist.push_back t.order node;
  Hashtbl.replace t.table key node

let remove t key =
  match Hashtbl.find_opt t.table key with
  | None -> false
  | Some node ->
    Dlist.remove t.order node;
    Hashtbl.remove t.table key;
    true

let peek_lru t = Dlist.peek_front t.order

let pop_lru t =
  match Dlist.pop_front t.order with
  | None -> None
  | Some (key, value) ->
    Hashtbl.remove t.table key;
    Some (key, value)

(* Least-recent entry satisfying [f], if any; O(n) worst case but the
   caller (page reclaim) normally finds a victim near the front. *)
let find_lru_matching t f =
  let result = ref None in
  (try
     Dlist.iter t.order (fun (k, v) ->
         if f k v then begin
           result := Some (k, v);
           raise Exit
         end)
   with Exit -> ());
  !result

let iter t f = Dlist.iter t.order (fun (k, v) -> f k v)
