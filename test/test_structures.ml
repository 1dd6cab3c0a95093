(* Tests for the core data structures, including qcheck property tests that
   compare each structure against a reference model. *)

module Bitmap = Hinfs_structures.Bitmap
module Dlist = Hinfs_structures.Dlist
module Lru = Hinfs_structures.Lru
module Itbl = Hinfs_structures.Itbl
module Blockmap = Hinfs_structures.Blockmap
module IntMap = Map.Make (Int)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- bitmap --- *)

let test_bitmap_basic () =
  let b = Bitmap.create 100 in
  check_int "initially clear" 0 (Bitmap.count_set b);
  Bitmap.set b 0;
  Bitmap.set b 63;
  Bitmap.set b 99;
  check_int "set count" 3 (Bitmap.count_set b);
  check_bool "get 63" true (Bitmap.get b 63);
  check_bool "get 64" false (Bitmap.get b 64);
  Bitmap.set b 63;
  check_int "idempotent set" 3 (Bitmap.count_set b);
  Bitmap.clear b 63;
  check_int "clear" 2 (Bitmap.count_set b);
  Bitmap.clear b 63;
  check_int "idempotent clear" 2 (Bitmap.count_set b)

let test_bitmap_find () =
  let b = Bitmap.create 32 in
  for i = 0 to 15 do
    Bitmap.set b i
  done;
  Alcotest.(check (option int)) "first clear" (Some 16)
    (Bitmap.find_first_clear b);
  Alcotest.(check (option int)) "first set from 8" (Some 8)
    (Bitmap.find_first_set ~from:8 b)

let test_bitmap_full_scan () =
  let b = Bitmap.create 17 in
  for i = 0 to 16 do
    Bitmap.set b i
  done;
  Alcotest.(check (option int)) "no clear bit" None (Bitmap.find_first_clear b)

let bitmap_model_prop =
  QCheck.Test.make ~name:"bitmap matches set model" ~count:300
    QCheck.(list (pair (int_bound 199) bool))
    (fun ops ->
      let b = Bitmap.create 200 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (i, set) ->
          if set then begin
            Bitmap.set b i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitmap.clear b i;
            Hashtbl.remove model i
          end)
        ops;
      let ok = ref (Bitmap.count_set b = Hashtbl.length model) in
      for i = 0 to 199 do
        if Bitmap.get b i <> Hashtbl.mem model i then ok := false
      done;
      !ok)

(* [find_first_clear]/[find_first_set] skip whole words and bytes: they
   must agree with a bit-at-a-time scan. Bitmaps are built from runs of
   one value, so whole words are often all set or all clear, over lengths
   that are rarely a multiple of 8, and scanned from random offsets. *)
let bitmap_find_prop =
  let gen =
    QCheck.Gen.(
      int_range 0 700 >>= fun length ->
      pair
        (list_size (int_range 0 12) (pair bool (int_range 1 200)))
        (list_size (int_range 1 10) (int_bound (length + 2)))
      >|= fun (runs, froms) -> (length, runs, froms))
  in
  QCheck.Test.make ~name:"find matches a bit-at-a-time scan" ~count:500
    (QCheck.make
       ~print:(fun (n, runs, froms) ->
         Fmt.str "length %d, runs %s, from %s" n
           (String.concat ";"
              (List.map (fun (v, k) -> Fmt.str "%b*%d" v k) runs))
           (String.concat ";" (List.map string_of_int froms)))
       gen)
    (fun (length, runs, froms) ->
      let b = Bitmap.create length in
      let pos = ref 0 in
      List.iter
        (fun (v, k) ->
          for i = !pos to min length (!pos + k) - 1 do
            Bitmap.assign b i v
          done;
          pos := !pos + k)
        runs;
      let reference want from =
        let rec go i =
          if i >= length then None
          else if Bitmap.get b i = want then Some i
          else go (i + 1)
        in
        go from
      in
      List.for_all
        (fun from ->
          Bitmap.find_first_clear ~from b = reference false from
          && Bitmap.find_first_set ~from b = reference true from)
        (0 :: froms))

(* --- dlist --- *)

let test_dlist_push_pop () =
  let l = Dlist.create () in
  let n1 = Dlist.make_node 1 and n2 = Dlist.make_node 2 and n3 = Dlist.make_node 3 in
  Dlist.push_back l n1;
  Dlist.push_back l n2;
  Dlist.push_front l n3;
  Alcotest.(check (list int)) "order" [ 3; 1; 2 ] (Dlist.to_list l);
  Alcotest.(check (option int)) "front" (Some 3) (Dlist.peek_front l);
  Alcotest.(check (option int)) "back" (Some 2) (Dlist.peek_back l);
  Dlist.move_to_back l n3;
  Alcotest.(check (list int)) "moved" [ 1; 2; 3 ] (Dlist.to_list l);
  Dlist.remove l n2;
  Alcotest.(check (list int)) "removed" [ 1; 3 ] (Dlist.to_list l);
  check_int "length" 2 (Dlist.length l);
  check_bool "unlinked" false (Dlist.is_linked n2)

let test_dlist_double_link_rejected () =
  let l = Dlist.create () in
  let n = Dlist.make_node 1 in
  Dlist.push_back l n;
  Alcotest.check_raises "relink rejected"
    (Invalid_argument "Dlist: node already linked") (fun () ->
      Dlist.push_back l n)

let test_dlist_iter_with_removal () =
  let l = Dlist.create () in
  let nodes = List.init 5 (fun i -> Dlist.make_node i) in
  List.iter (Dlist.push_back l) nodes;
  (* Remove even values during iteration. *)
  Dlist.iter_nodes l (fun n ->
      if Dlist.value n mod 2 = 0 then Dlist.remove l n);
  Alcotest.(check (list int)) "odds remain" [ 1; 3 ] (Dlist.to_list l)

(* --- lru --- *)

let test_lru_basic () =
  let lru = Lru.create () in
  Lru.add lru "a" 1;
  Lru.add lru "b" 2;
  Lru.add lru "c" 3;
  Alcotest.(check (option (pair string int))) "lru is a" (Some ("a", 1))
    (Lru.peek_lru lru);
  check_bool "touch a" true (Lru.touch lru "a");
  Alcotest.(check (option (pair string int))) "lru now b" (Some ("b", 2))
    (Lru.peek_lru lru);
  ignore (Lru.pop_lru lru);
  check_int "length" 2 (Lru.length lru);
  check_bool "b gone" false (Lru.mem lru "b")

let test_lru_find_matching () =
  let lru = Lru.create () in
  for i = 1 to 5 do
    Lru.add lru i (i * 10)
  done;
  Alcotest.(check (option (pair int int)))
    "least-recent even" (Some (2, 20))
    (Lru.find_lru_matching lru (fun k _ -> k mod 2 = 0));
  Alcotest.(check (option (pair int int)))
    "no match" None
    (Lru.find_lru_matching lru (fun k _ -> k > 10))

let test_lru_replace () =
  let lru = Lru.create () in
  Lru.add lru "k" 1;
  Lru.add lru "x" 2;
  Lru.add lru "k" 3;
  check_int "no duplicates" 2 (Lru.length lru);
  Alcotest.(check (option int)) "updated" (Some 3) (Lru.find lru "k");
  Alcotest.(check (option (pair string int)))
    "k moved to MRU" (Some ("x", 2)) (Lru.peek_lru lru)

(* --- crc32c --- *)

module Crc32c = Hinfs_structures.Crc32c

(* RFC 3720 appendix B.4 reference vectors. *)
let crc32c_vectors =
  [
    ("empty", "", 0x0);
    ("check value", "123456789", 0xE3069283);
    ("32 zeros", String.make 32 '\000', 0x8A9136AA);
    ("32 ones", String.make 32 '\xff', 0x62A8AB43);
    ("ascending", String.init 32 Char.chr, 0x46DD794E);
    ("descending", String.init 32 (fun i -> Char.chr (31 - i)), 0x113FDB5C);
  ]

let test_crc32c_vectors () =
  List.iter
    (fun (name, input, expected) ->
      check_int name expected (Crc32c.digest_string input))
    crc32c_vectors

(* The same vectors embedded at unaligned offsets into a larger dirty
   buffer: digest ~off ~len must see exactly the slice. *)
let test_crc32c_unaligned () =
  List.iter
    (fun (name, input, expected) ->
      List.iter
        (fun off ->
          let len = String.length input in
          let buf = Bytes.make (off + len + 7) '\xa5' in
          Bytes.blit_string input 0 buf off len;
          check_int
            (Fmt.str "%s at offset %d" name off)
            expected
            (Crc32c.digest buf ~off ~len))
        [ 1; 3; 5 ])
    crc32c_vectors

let test_crc32c_streaming () =
  List.iter
    (fun (name, input, expected) ->
      let b = Bytes.of_string input in
      let n = Bytes.length b in
      let split = n / 3 in
      let crc = Crc32c.update 0 b ~off:0 ~len:split in
      let crc = Crc32c.update crc b ~off:split ~len:(n - split) in
      check_int (Fmt.str "%s split at %d" name split) expected crc;
      (* Zero-length updates must be identity at any offset. *)
      check_int
        (Fmt.str "%s + empty update" name)
        expected
        (Crc32c.update crc b ~off:0 ~len:0))
    crc32c_vectors

(* --- itbl --- *)

(* Binds, rebinds and removes over a small key range (long probe runs,
   removals inside them, growth from a tiny table), checked against a
   Hashtbl after every step and by a full walk at the end. *)
let itbl_model_prop =
  QCheck.Test.make ~name:"itbl matches a hashtable" ~count:300
    QCheck.(list (pair (int_bound 3) (int_bound 300)))
    (fun ops ->
      let t = Itbl.create ~dummy:(-1) 1 in
      let model = Hashtbl.create 16 in
      let agree k =
        Itbl.get t k = Option.value ~default:(-1) (Hashtbl.find_opt model k)
        && Itbl.mem t k = Hashtbl.mem model k
      in
      List.for_all
        (fun (op, k) ->
          (match op with
          | 0 | 1 ->
            Itbl.replace t k (k + op);
            Hashtbl.replace model k (k + op)
          | 2 ->
            Itbl.remove t k;
            Hashtbl.remove model k
          | _ -> ());
          agree k && Itbl.length t = Hashtbl.length model)
        ops
      && Itbl.fold
           (fun k v ok -> ok && Hashtbl.find_opt model k = Some v)
           t true
      && Itbl.fold (fun _ _ n -> n + 1) t 0 = Hashtbl.length model)

(* The device's overlay of dirty cachelines is an [Itbl]: a line entering
   and leaving it allocates nothing once the table has grown. *)
let test_itbl_no_alloc () =
  let t = Itbl.create ~dummy:Bytes.empty 16 in
  let line = Bytes.make 64 'x' in
  Testkit.check_no_alloc "itbl add and remove" (fun () ->
      for k = 0 to 999 do
        Itbl.replace t (k * 7) line
      done;
      for k = 0 to 999 do
        Itbl.remove t (k * 7)
      done);
  check_int "empty again" 0 (Itbl.length t)

(* --- blockmap --- *)

(* Bindings on both sides of the dense limit, checked against a map:
   every lookup, and the walk in descending block order. *)
let blockmap_model_prop =
  let limit = Blockmap.dense_limit in
  QCheck.Test.make ~name:"blockmap matches a map" ~count:300
    QCheck.(list (pair bool (int_bound (3 * limit))))
    (fun ops ->
      let t = Blockmap.create () in
      let model = ref IntMap.empty in
      List.iter
        (fun (add, b) ->
          if add then begin
            Blockmap.add t b (b + 7);
            model := IntMap.add b (b + 7) !model
          end
          else begin
            Blockmap.remove t b;
            model := IntMap.remove b !model
          end)
        ops;
      List.for_all
        (fun (_, b) ->
          Blockmap.find t b
          = Option.value ~default:(-1) (IntMap.find_opt b !model))
        ops
      && Blockmap.to_list t = List.rev (IntMap.bindings !model))

let () =
  Alcotest.run "structures"
    [
      ( "bitmap",
        [
          Alcotest.test_case "basic" `Quick test_bitmap_basic;
          Alcotest.test_case "find" `Quick test_bitmap_find;
          Alcotest.test_case "full scan" `Quick test_bitmap_full_scan;
        ]
        @ Testkit.qcheck_cases [ bitmap_model_prop; bitmap_find_prop ] );
      ( "itbl",
        [ Alcotest.test_case "add and remove allocate nothing" `Quick
            test_itbl_no_alloc ]
        @ Testkit.qcheck_cases [ itbl_model_prop ] );
      ("blockmap", Testkit.qcheck_cases [ blockmap_model_prop ]);
      ( "dlist",
        [
          Alcotest.test_case "push/pop" `Quick test_dlist_push_pop;
          Alcotest.test_case "double link rejected" `Quick
            test_dlist_double_link_rejected;
          Alcotest.test_case "iter with removal" `Quick
            test_dlist_iter_with_removal;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basic" `Quick test_lru_basic;
          Alcotest.test_case "find matching" `Quick test_lru_find_matching;
          Alcotest.test_case "replace" `Quick test_lru_replace;
        ] );
      ( "crc32c",
        [
          Alcotest.test_case "reference vectors" `Quick test_crc32c_vectors;
          Alcotest.test_case "unaligned offsets" `Quick test_crc32c_unaligned;
          Alcotest.test_case "streaming" `Quick test_crc32c_streaming;
        ] );
    ]
