(* Per-file block map: a flat array for the blocks a file holds near its
   start, an [Itbl] beyond [dense_limit]. *)

let dense_limit = 1024

type t = {
  mutable near : int array; (* block -> value, or -1 *)
  mutable far : int Itbl.t option; (* blocks from [dense_limit] on *)
}

let create () = { near = [||]; far = None }

let find t b =
  if b < 0 then -1
  else if b < Array.length t.near then t.near.(b)
  else if b < dense_limit then -1
  else match t.far with None -> -1 | Some far -> Itbl.get far b

let add t b v =
  if b < 0 || v < 0 then invalid_arg "Blockmap.add: negative block or value";
  if b < dense_limit then begin
    let n = Array.length t.near in
    if b >= n then begin
      let size = Int.max 4 (Int.max (2 * n) (b + 1)) in
      let near = Array.make (Int.min dense_limit size) (-1) in
      Array.blit t.near 0 near 0 n;
      t.near <- near
    end;
    t.near.(b) <- v
  end
  else begin
    let far =
      match t.far with
      | Some far -> far
      | None ->
        let far = Itbl.create ~dummy:(-1) 0 in
        t.far <- Some far;
        far
    in
    Itbl.replace far b v
  end

let remove t b =
  if b >= 0 && b < Array.length t.near then t.near.(b) <- -1
  else match t.far with Some far -> Itbl.remove far b | None -> ()

let to_list t =
  let near = ref [] in
  Array.iteri (fun b v -> if v >= 0 then near := (b, v) :: !near) t.near;
  match t.far with
  | None -> !near
  | Some far ->
    List.sort
      (fun (a, _) (b, _) -> Int.compare b a)
      (Itbl.fold (fun b v acc -> (b, v) :: acc) far [])
    @ !near
