(* Intrusive doubly-linked list with O(1) removal given the node.

   This is the LRW (Least Recently Written) list of the HiNFS buffer pool:
   buffer blocks hold their own node and are moved to the MRW end on every
   write (paper §3.2).

   Each node and list carries its own [Some] ([some]), made with it, and
   links store that: relinking a node allocates nothing. Nodes and lists
   live long, so a fresh option per link would be promoted and die in the
   major heap, once per write. *)

type 'a node = {
  value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable owner : 'a t option;
  some : 'a node option; (* [Some] of this node *)
}

and 'a t = {
  mutable head : 'a node option; (* least recently used end *)
  mutable tail : 'a node option; (* most recently used end *)
  mutable size : int;
  self : 'a t option; (* [Some] of this list *)
}

let create () =
  let rec t = { head = None; tail = None; size = 0; self = Some t } in
  t

let length t = t.size

let make_node value =
  let rec n =
    { value; prev = None; next = None; owner = None; some = Some n }
  in
  n

let value node = node.value
let is_linked node = node.owner <> None

let check_unlinked node =
  if node.owner <> None then invalid_arg "Dlist: node already linked"

let check_linked t node =
  match node.owner with
  | Some owner when owner == t -> ()
  | _ -> invalid_arg "Dlist: node not linked to this list"

let push_back t node =
  check_unlinked node;
  node.owner <- t.self;
  node.prev <- t.tail;
  node.next <- None;
  (match t.tail with
  | Some tail -> tail.next <- node.some
  | None -> t.head <- node.some);
  t.tail <- node.some;
  t.size <- t.size + 1

let push_front t node =
  check_unlinked node;
  node.owner <- t.self;
  node.next <- t.head;
  node.prev <- None;
  (match t.head with
  | Some head -> head.prev <- node.some
  | None -> t.tail <- node.some);
  t.head <- node.some;
  t.size <- t.size + 1

let remove t node =
  check_linked t node;
  (match node.prev with
  | Some prev -> prev.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some next -> next.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None;
  node.owner <- None;
  t.size <- t.size - 1

let move_to_back t node =
  remove t node;
  push_back t node

let peek_front t = Option.map (fun n -> n.value) t.head
let peek_back t = Option.map (fun n -> n.value) t.tail

let pop_front t =
  match t.head with
  | None -> None
  | Some node ->
    remove t node;
    Some node.value

let iter t f =
  let rec loop = function
    | None -> ()
    | Some node ->
      (* Capture next before calling f, so f may remove the node. *)
      let next = node.next in
      f node.value;
      loop next
  in
  loop t.head

let iter_nodes t f =
  let rec loop = function
    | None -> ()
    | Some node ->
      let next = node.next in
      f node;
      loop next
  in
  loop t.head

let to_list t =
  let acc = ref [] in
  iter t (fun v -> acc := v :: !acc);
  List.rev !acc
