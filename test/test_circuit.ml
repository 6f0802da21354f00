(* Tests for the netlist substrate: the DAG representation, the .bench
   reader/writer, and the structural benchmark generators. *)

let check_close ?(eps = 1e-9) msg expected actual = Alcotest.(check (float eps)) msg expected actual
let _ = check_close

let pi name = Circuit.Netlist.Primary_input { name }
let gate cell fanin name = Circuit.Netlist.Gate { cell; fanin; name }

(* --- Netlist core --- *)

let test_create_simple () =
  let nodes = [| pi "a"; pi "b"; gate (Cell.Stdcell.nand_ 2) [| 0; 1 |] "g" |] in
  let t = Circuit.Netlist.create ~name:"t" nodes ~outputs:[| 2 |] in
  Alcotest.(check int) "nodes" 3 (Circuit.Netlist.n_nodes t);
  Alcotest.(check int) "gates" 1 (Circuit.Netlist.n_gates t);
  Alcotest.(check int) "pis" 2 (Circuit.Netlist.n_primary_inputs t);
  Alcotest.(check string) "name" "g" (Circuit.Netlist.node_name t 2)

let test_create_topo_sorts () =
  (* Gate listed before its fanin: create must renumber. *)
  let nodes = [| gate Cell.Stdcell.inv [| 1 |] "g"; pi "a" |] in
  let t = Circuit.Netlist.create ~name:"t" nodes ~outputs:[| 0 |] in
  (match t.Circuit.Netlist.nodes.(0) with
  | Circuit.Netlist.Primary_input _ -> ()
  | _ -> Alcotest.fail "PI should come first after sorting");
  Alcotest.(check int) "output follows renumbering" 1 t.Circuit.Netlist.outputs.(0)

let test_create_rejects_cycle () =
  let nodes =
    [| pi "a"; gate Cell.Stdcell.inv [| 2 |] "g1"; gate Cell.Stdcell.inv [| 1 |] "g2" |]
  in
  Alcotest.(check bool) "cycle rejected" true
    (try
       ignore (Circuit.Netlist.create ~name:"t" nodes ~outputs:[| 1 |]);
       false
     with Invalid_argument _ -> true)

let test_create_rejects_arity () =
  let nodes = [| pi "a"; gate (Cell.Stdcell.nand_ 2) [| 0 |] "g" |] in
  Alcotest.(check bool) "arity mismatch rejected" true
    (try
       ignore (Circuit.Netlist.create ~name:"t" nodes ~outputs:[| 1 |]);
       false
     with Invalid_argument _ -> true)

let test_create_rejects_duplicates_and_empty () =
  let nodes = [| pi "a"; pi "a" |] in
  Alcotest.(check bool) "duplicate names" true
    (try
       ignore (Circuit.Netlist.create ~name:"t" nodes ~outputs:[| 0 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "no outputs" true
    (try
       ignore (Circuit.Netlist.create ~name:"t" [| pi "a" |] ~outputs:[||]);
       false
     with Invalid_argument _ -> true)

let test_levels_depth_fanout () =
  let c17 = Circuit.Generators.c17 () in
  Alcotest.(check int) "c17 depth" 3 (Circuit.Netlist.depth c17);
  let levels = Circuit.Netlist.levels c17 in
  Array.iter (fun id -> Alcotest.(check int) "PI level 0" 0 levels.(id)) (Circuit.Netlist.primary_inputs c17);
  let fanout = Circuit.Netlist.fanout c17 in
  (* G11 drives G16 and G19. *)
  let g11 = ref (-1) in
  Array.iteri
    (fun i _ -> if Circuit.Netlist.node_name c17 i = "G11" then g11 := i)
    c17.Circuit.Netlist.nodes;
  Alcotest.(check int) "G11 fanout" 2 (Array.length fanout.(!g11))

let test_stats () =
  let s = Circuit.Netlist.stats (Circuit.Generators.c17 ()) in
  Alcotest.(check int) "pi" 5 s.Circuit.Netlist.n_pi;
  Alcotest.(check int) "po" 2 s.Circuit.Netlist.n_po;
  Alcotest.(check int) "gates" 6 s.Circuit.Netlist.n_gates;
  Alcotest.(check (list (pair string int))) "mix" [ ("NAND2", 6) ] s.Circuit.Netlist.by_cell

let test_builder () =
  let b = Circuit.Netlist.Builder.create ~name:"adder" in
  let a = Circuit.Netlist.Builder.input b "a" in
  let c = Circuit.Netlist.Builder.input b "b" in
  let x = Circuit.Netlist.Builder.xor2 b a c in
  Circuit.Netlist.Builder.output b x;
  let t = Circuit.Netlist.Builder.finish b in
  Alcotest.(check int) "one gate" 1 (Circuit.Netlist.n_gates t);
  Alcotest.(check bool) "is output" true (Circuit.Netlist.is_output t x)

let test_builder_fresh_names () =
  let b = Circuit.Netlist.Builder.create ~name:"t" in
  let a = Circuit.Netlist.Builder.input b "x" in
  let i1 = Circuit.Netlist.Builder.gate b ~name:"n" ~cell:Cell.Stdcell.inv [| a |] in
  let i2 = Circuit.Netlist.Builder.gate b ~name:"n" ~cell:Cell.Stdcell.inv [| a |] in
  Circuit.Netlist.Builder.output b i2;
  let t = Circuit.Netlist.Builder.finish b in
  Alcotest.(check bool) "names deduplicated" true
    (Circuit.Netlist.node_name t i1 <> Circuit.Netlist.node_name t i2)

let test_builder_rejects_bad_fanin () =
  let b = Circuit.Netlist.Builder.create ~name:"t" in
  Alcotest.(check bool) "unknown id" true
    (try
       ignore (Circuit.Netlist.Builder.gate b ~cell:Cell.Stdcell.inv [| 5 |]);
       false
     with Invalid_argument _ -> true)

(* --- Bench_io --- *)

let c17_reference_outputs inputs =
  (* c17 implements G22 = NAND(G10,G16), G23 = NAND(G16,G19) over the
     published NAND structure. *)
  let g1 = inputs.(0) and g2 = inputs.(1) and g3 = inputs.(2) and g6 = inputs.(3) and g7 = inputs.(4) in
  let nand a b = not (a && b) in
  let g10 = nand g1 g3 and g11 = nand g3 g6 in
  let g16 = nand g2 g11 in
  let g19 = nand g11 g7 in
  [| nand g10 g16; nand g16 g19 |]

let test_c17_function () =
  let c17 = Circuit.Generators.c17 () in
  for idx = 0 to 31 do
    let inputs = Array.init 5 (fun i -> (idx lsr i) land 1 = 1) in
    Alcotest.(check (array bool))
      (Printf.sprintf "vector %d" idx)
      (c17_reference_outputs inputs)
      (Logic.Eval.eval_outputs c17 ~inputs)
  done

let test_bench_roundtrip () =
  let c17 = Circuit.Generators.c17 () in
  let text = Circuit.Bench_io.to_string c17 in
  let back = Circuit.Bench_io.parse_string ~name:"c17rt" text in
  for idx = 0 to 31 do
    let inputs = Array.init 5 (fun i -> (idx lsr i) land 1 = 1) in
    Alcotest.(check (array bool))
      "roundtrip preserves logic"
      (Logic.Eval.eval_outputs c17 ~inputs)
      (Logic.Eval.eval_outputs back ~inputs)
  done

let test_bench_forward_reference () =
  (* Signals referenced before definition, as in real ISCAS files. *)
  let t =
    Circuit.Bench_io.parse_string ~name:"fwd"
      "INPUT(a)\nOUTPUT(z)\nz = NOT(y)\ny = NOT(a)\n"
  in
  Alcotest.(check (array bool)) "double inversion" [| true |]
    (Logic.Eval.eval_outputs t ~inputs:[| true |])

let test_bench_wide_gate_decomposition () =
  (* 6-input NAND must decompose into library cells but keep the logic. *)
  let t =
    Circuit.Bench_io.parse_string ~name:"wide"
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\nOUTPUT(z)\nz = NAND(a,b,c,d,e,f)\n"
  in
  for idx = 0 to 63 do
    let inputs = Array.init 6 (fun i -> (idx lsr i) land 1 = 1) in
    let expected = not (Array.for_all Fun.id inputs) in
    Alcotest.(check (array bool)) "NAND6" [| expected |] (Logic.Eval.eval_outputs t ~inputs)
  done

let test_bench_xor_chain () =
  let t =
    Circuit.Bench_io.parse_string ~name:"x3" "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z)\nz = XOR(a,b,c)\n"
  in
  for idx = 0 to 7 do
    let inputs = Array.init 3 (fun i -> (idx lsr i) land 1 = 1) in
    let expected = Array.fold_left (fun acc b -> acc <> b) false inputs in
    Alcotest.(check (array bool)) "XOR3" [| expected |] (Logic.Eval.eval_outputs t ~inputs)
  done

let test_bench_comments_and_spacing () =
  let t =
    Circuit.Bench_io.parse_string ~name:"sp"
      "# header\n\n  INPUT( a )\nOUTPUT(z)  # trailing\nz = NOT( a )\n"
  in
  Alcotest.(check int) "one gate" 1 (Circuit.Netlist.n_gates t)

let test_bench_crlf () =
  (* DOS line endings must parse to the same netlist as LF. *)
  let lf = "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n" in
  let crlf = "INPUT(a)\r\nINPUT(b)\r\nOUTPUT(z)\r\nz = NAND(a, b)\r\n" in
  let cr_only = "INPUT(a)\rINPUT(b)\rOUTPUT(z)\rz = NAND(a, b)\r" in
  let t_lf = Circuit.Bench_io.parse_string ~name:"t" lf in
  let t_crlf = Circuit.Bench_io.parse_string ~name:"t" crlf in
  let t_cr = Circuit.Bench_io.parse_string ~name:"t" cr_only in
  Alcotest.(check string) "crlf same netlist" (Circuit.Netlist.digest t_lf)
    (Circuit.Netlist.digest t_crlf);
  Alcotest.(check string) "lone cr same netlist" (Circuit.Netlist.digest t_lf)
    (Circuit.Netlist.digest t_cr);
  (* a CRLF comment line must not swallow the next line *)
  let commented = "# header\r\nINPUT(a)\r\nOUTPUT(z)\r\nz = NOT(a)\r\n" in
  Alcotest.(check int) "comment line" 1
    (Circuit.Netlist.n_gates (Circuit.Bench_io.parse_string ~name:"t" commented))

let test_bench_trailing_whitespace () =
  let padded = "INPUT(a)   \nINPUT(b)\t\nOUTPUT(z)  \t \nz = NAND(a, b)    \n\t\n" in
  let t = Circuit.Bench_io.parse_string ~name:"t" padded in
  Alcotest.(check int) "one gate" 1 (Circuit.Netlist.n_gates t);
  Alcotest.(check int) "two inputs" 2 (Circuit.Netlist.n_primary_inputs t)

let test_netlist_digest () =
  (* digest is structural: stable across names, sensitive to structure *)
  let parse text = Circuit.Bench_io.parse_string ~name:"t" text in
  let a = parse "INPUT(x)\nINPUT(y)\nOUTPUT(o)\no = NAND(x, y)\n" in
  let b = parse "INPUT(p)\nINPUT(q)\nOUTPUT(r)\nr = NAND(p, q)\n" in
  let c = parse "INPUT(x)\nINPUT(y)\nOUTPUT(o)\no = NOR(x, y)\n" in
  Alcotest.(check string) "names don't matter" (Circuit.Netlist.digest a) (Circuit.Netlist.digest b);
  Alcotest.(check bool) "cells matter" true (Circuit.Netlist.digest a <> Circuit.Netlist.digest c);
  let c17 = Circuit.Generators.c17 () in
  Alcotest.(check string) "deterministic" (Circuit.Netlist.digest c17)
    (Circuit.Netlist.digest (Circuit.Generators.c17 ()))

let test_bench_errors () =
  let expect_failure text =
    try
      ignore (Circuit.Bench_io.parse_string ~name:"bad" text);
      false
    with Failure _ -> true
  in
  Alcotest.(check bool) "undefined signal" true (expect_failure "INPUT(a)\nOUTPUT(z)\nz = NOT(q)\n");
  Alcotest.(check bool) "redefinition" true
    (expect_failure "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz = BUF(a)\n");
  Alcotest.(check bool) "unknown op" true (expect_failure "INPUT(a)\nOUTPUT(z)\nz = MAJ(a,a,a)\n");
  Alcotest.(check bool) "cycle" true (expect_failure "INPUT(a)\nOUTPUT(z)\nz = NOT(y)\ny = NOT(z)\n");
  Alcotest.(check bool) "syntax" true (expect_failure "INPUT a\n")

let test_bench_file_io () =
  let path = Filename.temp_file "nbti_test" ".bench" in
  let c17 = Circuit.Generators.c17 () in
  Circuit.Bench_io.write_file c17 ~path;
  let back = Circuit.Bench_io.parse_file path in
  Sys.remove path;
  Alcotest.(check int) "gates preserved" (Circuit.Netlist.n_gates c17) (Circuit.Netlist.n_gates back);
  Alcotest.(check string) "name from basename"
    (Filename.remove_extension (Filename.basename path))
    back.Circuit.Netlist.name

(* --- Generators --- *)

let test_profiles_have_all_circuits () =
  let names = List.map (fun p -> p.Circuit.Generators.name) Circuit.Generators.iscas85_profiles in
  Alcotest.(check int) "eleven circuits (incl. c17)" 11 (List.length names);
  Alcotest.(check bool) "contains c6288" true (List.mem "c6288" names)

let test_random_dag_profile_exact () =
  let p = List.find (fun p -> p.Circuit.Generators.name = "c432") Circuit.Generators.iscas85_profiles in
  let t = Circuit.Generators.random_dag p in
  let s = Circuit.Netlist.stats t in
  Alcotest.(check int) "pi" p.Circuit.Generators.n_pi s.Circuit.Netlist.n_pi;
  Alcotest.(check int) "po" p.Circuit.Generators.n_po s.Circuit.Netlist.n_po;
  Alcotest.(check int) "gates" p.Circuit.Generators.n_gates s.Circuit.Netlist.n_gates

let test_random_dag_deterministic () =
  let t1 = Circuit.Generators.by_name "c1908" and t2 = Circuit.Generators.by_name "c1908" in
  Alcotest.(check string) "same bench text"
    (Circuit.Bench_io.to_string t1) (Circuit.Bench_io.to_string t2)

let test_random_dag_all_pis_used () =
  let t = Circuit.Generators.by_name "c2670" in
  let fanout = Circuit.Netlist.fanout t in
  Array.iter
    (fun id ->
      Alcotest.(check bool) "PI drives something" true (Array.length fanout.(id) > 0))
    (Circuit.Netlist.primary_inputs t)

(* Every generator's output, pinned: the structural digest (which keys the
   service caches), an MD5 of the .bench text (which also covers
   instance names) and the netlist name, which the service's result keys
   take from the requested name. A generator rewrite must leave all three
   unchanged. *)
let pinned_generator_digests =
  [
    ("c17", "97969ca694dcf4238373102bb7e26a71", "e65cce3f266e7a444818e258b17af0b2");
    ("c432", "2ab1ace1de544ce15afb39849cc807fd", "ef36ed694a566f5efb8d8a2277ac6191");
    ("c499", "29314fe96128b9572aafc995a4995e0e", "0ea502acc220e55a618d0c985a8dd805");
    ("c880", "2024a4ab26d9b050a5f2a69cfc7ededd", "be54e0c7eef1f4b8bd597d38cb6a456d");
    ("c1355", "29314fe96128b9572aafc995a4995e0e", "0ef1894f43ca15ee360a551d6b03d5c5");
    ("c1908", "9fc46b0d2fde477a00316ad40e7c6ef4", "0dd909e825da9d43e9bb639f9c206464");
    ("c2670", "9d10bac809e3a635e800599dc13947cf", "41d64ce9b87270dd9bc7e742908ce07d");
    ("c3540", "66e0417bfc3f5f643f450313af864a52", "422b2befbf7fb9715fea04a293d1160b");
    ("c5315", "d9b65d24c98949dde13c2f167a664305", "aa13a4f86a746f5df97b96157e53c4b1");
    ("c6288", "d8cf6bc766ff19618677528b31611217", "56338692f6e61cba38dcf1ef3c548bba");
    ("c7552", "29066e0dd4eee55388a76f60731fe480", "72a6f45ccdd2242bbc3eb45d24afaded");
  ]

let test_generator_digests_pinned () =
  Alcotest.(check int) "every profile pinned"
    (List.length Circuit.Generators.iscas85_profiles)
    (List.length pinned_generator_digests);
  List.iter
    (fun (name, digest, text_md5) ->
      let net = Circuit.Generators.by_name name in
      Alcotest.(check string) (name ^ " name") name net.Circuit.Netlist.name;
      Alcotest.(check string) (name ^ " digest") digest (Circuit.Netlist.digest net);
      Alcotest.(check string) (name ^ " bench text") text_md5
        (Digest.to_hex (Digest.string (Circuit.Bench_io.to_string net))))
    pinned_generator_digests

let test_by_name_unknown () =
  Alcotest.check_raises "unknown circuit" Not_found (fun () ->
      ignore (Circuit.Generators.by_name "c9999"))

let test_small_suite () =
  Alcotest.(check int) "four circuits" 4 (List.length (Circuit.Generators.small_suite ()))

(* --- Multiplier --- *)

let eval_mult m ~width a b =
  let inputs =
    Array.init (2 * width) (fun i ->
        if i < width then (a lsr i) land 1 = 1 else (b lsr (i - width)) land 1 = 1)
  in
  let outs = Logic.Eval.eval_outputs m ~inputs in
  Array.to_list outs |> List.mapi (fun i bit -> if bit then 1 lsl i else 0) |> List.fold_left ( + ) 0

let test_multiplier_exhaustive_4x4 () =
  let m = Circuit.Multiplier.generate ~width:4 in
  for a = 0 to 15 do
    for b = 0 to 15 do
      Alcotest.(check int) (Printf.sprintf "%d*%d" a b) (a * b) (eval_mult m ~width:4 a b)
    done
  done

let test_multiplier_spot_8x8 () =
  let m = Circuit.Multiplier.generate ~width:8 in
  List.iter
    (fun (a, b) -> Alcotest.(check int) (Printf.sprintf "%d*%d" a b) (a * b) (eval_mult m ~width:8 a b))
    [ (0, 0); (255, 255); (1, 200); (137, 91); (64, 64); (254, 3) ]

let test_c6288_like_shape () =
  let s = Circuit.Netlist.stats (Circuit.Multiplier.c6288_like ()) in
  Alcotest.(check int) "32 inputs" 32 s.Circuit.Netlist.n_pi;
  Alcotest.(check int) "32 outputs" 32 s.Circuit.Netlist.n_po;
  Alcotest.(check bool) "c6288 size class" true (s.Circuit.Netlist.n_gates > 1000);
  Alcotest.(check bool) "deep carry chains" true (s.Circuit.Netlist.depth > 50)

(* --- Ecc --- *)

let test_ecc_no_error_passthrough () =
  (* With consistent check bits the syndrome is zero and data passes
     through unchanged. *)
  let data_bits = 8 and check_bits = 4 in
  let t = Circuit.Ecc.generate ~data_bits ~check_bits () in
  let rng = Physics.Rng.create ~seed:77 in
  for _ = 1 to 50 do
    let data = Array.init data_bits (fun _ -> Physics.Rng.bool rng) in
    (* check bit k = xor of data bits whose (i+1) has bit k *)
    let check =
      Array.init check_bits (fun k ->
          let x = ref false in
          Array.iteri (fun i d -> if ((i + 1) lsr k) land 1 = 1 && d then x := not !x) data;
          !x)
    in
    let inputs = Array.append data check in
    Alcotest.(check (array bool)) "clean word passes" data (Logic.Eval.eval_outputs t ~inputs)
  done

let test_ecc_corrects_single_error () =
  let data_bits = 8 and check_bits = 4 in
  let t = Circuit.Ecc.generate ~data_bits ~check_bits () in
  let rng = Physics.Rng.create ~seed:78 in
  for _ = 1 to 50 do
    let data = Array.init data_bits (fun _ -> Physics.Rng.bool rng) in
    let check =
      Array.init check_bits (fun k ->
          let x = ref false in
          Array.iteri (fun i d -> if ((i + 1) lsr k) land 1 = 1 && d then x := not !x) data;
          !x)
    in
    (* Flip one data bit on the wire. *)
    let e = Physics.Rng.int rng data_bits in
    let corrupted = Array.mapi (fun i d -> if i = e then not d else d) data in
    let inputs = Array.append corrupted check in
    Alcotest.(check (array bool)) "single error corrected" data (Logic.Eval.eval_outputs t ~inputs)
  done

let test_c499_like_shape () =
  let s = Circuit.Netlist.stats (Circuit.Ecc.c499_like ()) in
  Alcotest.(check int) "41 inputs" 41 s.Circuit.Netlist.n_pi;
  Alcotest.(check int) "32 outputs" 32 s.Circuit.Netlist.n_po

let test_ecc_rejects_bad_params () =
  Alcotest.(check bool) "too few check bits" true
    (try
       ignore (Circuit.Ecc.generate ~data_bits:32 ~check_bits:5 ());
       false
     with Invalid_argument _ -> true)

(* --- Interrupt controller (c432's architecture) --- *)

let intc = Circuit.Interrupt.c432_like ()

let run_intc v =
  let a = Array.sub v 0 9 and b = Array.sub v 9 9 and c = Array.sub v 18 9 and e = Array.sub v 27 9 in
  (Circuit.Interrupt.reference ~a ~b ~c ~e, Logic.Eval.eval_outputs intc ~inputs:v)

let test_interrupt_shape () =
  let s = Circuit.Netlist.stats intc in
  Alcotest.(check int) "36 inputs like c432" 36 s.Circuit.Netlist.n_pi;
  Alcotest.(check int) "7 outputs like c432" 7 s.Circuit.Netlist.n_po;
  Alcotest.(check bool) "size class" true (s.Circuit.Netlist.n_gates > 80 && s.Circuit.Netlist.n_gates < 250)

let test_interrupt_random_vs_reference () =
  let rng = Physics.Rng.create ~seed:432 in
  for _ = 1 to 500 do
    let v = Array.init 36 (fun _ -> Physics.Rng.bool rng) in
    let expected, got = run_intc v in
    Alcotest.(check (array bool)) "matches behavioural model" expected got
  done

let test_interrupt_priority_semantics () =
  (* Directed: bus A beats B beats C on the same line; lowest line wins. *)
  let v = Array.make 36 false in
  Array.blit (Array.make 9 true) 0 v 27 9;
  (* enable all *)
  let with_requests reqs =
    let v = Array.copy v in
    List.iter (fun (bus, line) -> v.((bus * 9) + line) <- true) reqs;
    Logic.Eval.eval_outputs intc ~inputs:v
  in
  (* A3 and B3: bus A acknowledged, line code 4. *)
  let out = with_requests [ (0, 3); (1, 3) ] in
  Alcotest.(check (array bool)) "A beats B on the line"
    [| true; false; false; false; false; true; false |]
    out;
  (* B2 alone: PB, line code 3. *)
  let out = with_requests [ (1, 2) ] in
  Alcotest.(check (array bool)) "B alone" [| false; true; false; true; true; false; false |] out;
  (* C5 and A7: PA and PC both set; line 5 wins (code 6) because A7 is later. *)
  let out = with_requests [ (2, 5); (0, 7) ] in
  Alcotest.(check (array bool)) "lowest line wins"
    [| true; false; true; false; true; true; false |]
    out;
  (* Nothing requested: all outputs low. *)
  let out = with_requests [] in
  Alcotest.(check (array bool)) "idle" (Array.make 7 false) out

let test_interrupt_enables_gate_requests () =
  let v = Array.make 36 false in
  v.(0) <- true;
  (* a0 requested but e0 low *)
  let out = Logic.Eval.eval_outputs intc ~inputs:v in
  Alcotest.(check (array bool)) "disabled line ignored" (Array.make 7 false) out

let test_interrupt_scales () =
  let small = Circuit.Interrupt.generate ~channels:4 () in
  Alcotest.(check int) "4-channel inputs" 16 (Circuit.Netlist.n_primary_inputs small);
  Alcotest.(check bool) "bad channel count" true
    (try
       ignore (Circuit.Interrupt.generate ~channels:1 ());
       false
     with Invalid_argument _ -> true)

(* --- Alu --- *)

let test_alu_operations () =
  let width = 4 in
  let t = Circuit.Alu.generate ~width in
  (* Input order: s0, s1, then a bits, b bits, cin (builder order). *)
  let run ~s0 ~s1 ~a ~b ~cin =
    let inputs =
      Array.concat
        [
          [| s0; s1 |];
          Array.init width (fun i -> (a lsr i) land 1 = 1);
          Array.init width (fun i -> (b lsr i) land 1 = 1);
          [| cin |];
        ]
    in
    let outs = Logic.Eval.eval_outputs t ~inputs in
    (* Outputs: r0..r3, cout, zero, parity. *)
    let r = ref 0 in
    for i = 0 to width - 1 do
      if outs.(i) then r := !r lor (1 lsl i)
    done;
    (!r, outs.(width), outs.(width + 1), outs.(width + 2))
  in
  (* add *)
  let r, cout, zero, _ = run ~s0:false ~s1:false ~a:9 ~b:8 ~cin:false in
  Alcotest.(check int) "9+8 mod 16" 1 r;
  Alcotest.(check bool) "carry out" true cout;
  Alcotest.(check bool) "not zero" false zero;
  (* and *)
  let r, _, zero, _ = run ~s0:true ~s1:false ~a:12 ~b:10 ~cin:false in
  Alcotest.(check int) "12 and 10" 8 r;
  Alcotest.(check bool) "nonzero flag" false zero;
  (* or *)
  let r, _, _, _ = run ~s0:false ~s1:true ~a:12 ~b:10 ~cin:false in
  Alcotest.(check int) "12 or 10" 14 r;
  (* xor *)
  let r, _, _, _ = run ~s0:true ~s1:true ~a:12 ~b:10 ~cin:false in
  Alcotest.(check int) "12 xor 10" 6 r;
  (* zero flag *)
  let _, _, zero, _ = run ~s0:true ~s1:false ~a:5 ~b:10 ~cin:false in
  Alcotest.(check bool) "5 and 10 is zero" true zero

let test_c880_like_shape () =
  let s = Circuit.Netlist.stats (Circuit.Alu.c880_like ()) in
  Alcotest.(check int) "60 inputs like c880" 60 s.Circuit.Netlist.n_pi;
  Alcotest.(check bool) "c880 size class" true (s.Circuit.Netlist.n_gates > 250)

(* --- Verilog writer --- *)

let test_verilog_structure () =
  let v = Circuit.Verilog.to_string (Circuit.Generators.c17 ()) in
  let contains needle =
    try
      ignore (Str.search_forward (Str.regexp_string needle) v 0);
      true
    with Not_found -> false
  in
  Alcotest.(check bool) "module header" true (contains "module c17 (");
  Alcotest.(check bool) "endmodule" true (contains "endmodule");
  Alcotest.(check bool) "six nands" true (contains "nand u6_");
  Alcotest.(check bool) "po buffers" true (contains "buf upo0_")

let test_verilog_sanitizes () =
  let b = Circuit.Netlist.Builder.create ~name:"my-top!" in
  let a = Circuit.Netlist.Builder.input b "wire" in
  (* reserved word as a name *)
  let g = Circuit.Netlist.Builder.not_ b a in
  Circuit.Netlist.Builder.output b g;
  let v = Circuit.Verilog.to_string (Circuit.Netlist.Builder.finish b) in
  let contains needle =
    try
      ignore (Str.search_forward (Str.regexp_string needle) v 0);
      true
    with Not_found -> false
  in
  Alcotest.(check bool) "module name sanitized" true (contains "module my_top_ (");
  Alcotest.(check bool) "reserved input renamed" true (contains "input wire_w;")

let test_verilog_covers_whole_library () =
  (* A netlist using every cell family must emit without failure. *)
  let b = Circuit.Netlist.Builder.create ~name:"allcells" in
  let ins = Array.init 4 (fun i -> Circuit.Netlist.Builder.input b (Printf.sprintf "i%d" i)) in
  List.iter
    (fun cell ->
      let fanin = Array.init cell.Cell.Stdcell.n_inputs (fun k -> ins.(k)) in
      Circuit.Netlist.Builder.output b (Circuit.Netlist.Builder.gate b ~cell fanin))
    Cell.Stdcell.library;
  let v = Circuit.Verilog.to_string (Circuit.Netlist.Builder.finish b) in
  Alcotest.(check bool) "emitted" true (String.length v > 500)

(* --- Properties --- *)

let prop_generated_netlists_topological =
  QCheck.Test.make ~name:"generated netlists keep the topological invariant" ~count:8
    (QCheck.make (QCheck.Gen.oneofl [ "c17"; "c432"; "c499"; "c880"; "c1908" ]))
    (fun name ->
      let t = Circuit.Generators.by_name name in
      Array.for_all
        (fun node ->
          match node with
          | Circuit.Netlist.Primary_input _ -> true
          | Circuit.Netlist.Gate { fanin; _ } -> Array.for_all (fun f -> f >= 0) fanin)
        t.Circuit.Netlist.nodes)

let prop_bench_parser_total =
  QCheck.Test.make ~name:".bench parser only raises Failure on garbage" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_bound 60))
    (fun text ->
      match Circuit.Bench_io.parse_string ~name:"fuzz" text with
      | _ -> true
      | exception Failure _ -> true
      | exception Invalid_argument _ -> true
      | exception _ -> false)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_generated_netlists_topological; prop_bench_parser_total ]

let () =
  Alcotest.run "circuit"
    [
      ( "netlist",
        [
          Alcotest.test_case "create" `Quick test_create_simple;
          Alcotest.test_case "topological sorting" `Quick test_create_topo_sorts;
          Alcotest.test_case "cycle rejected" `Quick test_create_rejects_cycle;
          Alcotest.test_case "arity rejected" `Quick test_create_rejects_arity;
          Alcotest.test_case "duplicates/empty rejected" `Quick test_create_rejects_duplicates_and_empty;
          Alcotest.test_case "levels/depth/fanout" `Quick test_levels_depth_fanout;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "builder" `Quick test_builder;
          Alcotest.test_case "builder fresh names" `Quick test_builder_fresh_names;
          Alcotest.test_case "builder bad fanin" `Quick test_builder_rejects_bad_fanin;
        ] );
      ( "bench-io",
        [
          Alcotest.test_case "c17 truth table" `Quick test_c17_function;
          Alcotest.test_case "roundtrip" `Quick test_bench_roundtrip;
          Alcotest.test_case "forward references" `Quick test_bench_forward_reference;
          Alcotest.test_case "wide gate decomposition" `Quick test_bench_wide_gate_decomposition;
          Alcotest.test_case "xor chain" `Quick test_bench_xor_chain;
          Alcotest.test_case "comments and spacing" `Quick test_bench_comments_and_spacing;
          Alcotest.test_case "crlf line endings" `Quick test_bench_crlf;
          Alcotest.test_case "trailing whitespace" `Quick test_bench_trailing_whitespace;
          Alcotest.test_case "structural digest" `Quick test_netlist_digest;
          Alcotest.test_case "errors" `Quick test_bench_errors;
          Alcotest.test_case "file io" `Quick test_bench_file_io;
        ] );
      ( "generators",
        [
          Alcotest.test_case "profiles" `Quick test_profiles_have_all_circuits;
          Alcotest.test_case "profile counts exact" `Quick test_random_dag_profile_exact;
          Alcotest.test_case "deterministic" `Quick test_random_dag_deterministic;
          Alcotest.test_case "all PIs used" `Quick test_random_dag_all_pis_used;
          Alcotest.test_case "digests pinned" `Quick test_generator_digests_pinned;
          Alcotest.test_case "unknown name" `Quick test_by_name_unknown;
          Alcotest.test_case "small suite" `Quick test_small_suite;
        ] );
      ( "multiplier",
        [
          Alcotest.test_case "4x4 exhaustive" `Quick test_multiplier_exhaustive_4x4;
          Alcotest.test_case "8x8 spot checks" `Quick test_multiplier_spot_8x8;
          Alcotest.test_case "c6288 shape" `Quick test_c6288_like_shape;
        ] );
      ( "ecc",
        [
          Alcotest.test_case "clean passthrough" `Quick test_ecc_no_error_passthrough;
          Alcotest.test_case "single error corrected" `Quick test_ecc_corrects_single_error;
          Alcotest.test_case "c499 shape" `Quick test_c499_like_shape;
          Alcotest.test_case "bad parameters" `Quick test_ecc_rejects_bad_params;
        ] );
      ( "alu",
        [
          Alcotest.test_case "operations" `Quick test_alu_operations;
          Alcotest.test_case "c880 shape" `Quick test_c880_like_shape;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "structure" `Quick test_verilog_structure;
          Alcotest.test_case "sanitization" `Quick test_verilog_sanitizes;
          Alcotest.test_case "whole library" `Quick test_verilog_covers_whole_library;
        ] );
      ( "interrupt",
        [
          Alcotest.test_case "c432 shape" `Quick test_interrupt_shape;
          Alcotest.test_case "matches reference" `Quick test_interrupt_random_vs_reference;
          Alcotest.test_case "priority semantics" `Quick test_interrupt_priority_semantics;
          Alcotest.test_case "enables gate requests" `Quick test_interrupt_enables_gate_requests;
          Alcotest.test_case "parameterized" `Quick test_interrupt_scales;
        ] );
      ("properties", props);
    ]
