(* Tests for logic simulation and signal probability estimation. *)

let c17 = Circuit.Generators.c17 ()

(* Exact signal probabilities by full enumeration, weighting each input
   vector by its probability — the oracle both estimators are checked
   against. *)
let exact_sp t ~input_sp =
  let n_pi = Circuit.Netlist.n_primary_inputs t in
  let probs = Array.make (Circuit.Netlist.n_nodes t) 0.0 in
  for idx = 0 to (1 lsl n_pi) - 1 do
    let inputs = Array.init n_pi (fun i -> (idx lsr i) land 1 = 1) in
    let w = ref 1.0 in
    Array.iteri (fun i b -> w := !w *. (if b then input_sp.(i) else 1.0 -. input_sp.(i))) inputs;
    let values = Logic.Eval.eval t ~inputs in
    Array.iteri (fun i v -> if v then probs.(i) <- probs.(i) +. !w) values
  done;
  probs

let test_eval_known_vector () =
  (* All-zero inputs: every first-level NAND outputs 1, outputs are 0. *)
  let outs = Logic.Eval.eval_outputs c17 ~inputs:(Array.make 5 false) in
  Alcotest.(check (array bool)) "all-0 inputs" [| false; false |] outs

let test_eval_all_nodes () =
  let values = Logic.Eval.eval c17 ~inputs:(Array.make 5 true) in
  Alcotest.(check int) "value per node" (Circuit.Netlist.n_nodes c17) (Array.length values)

let test_eval_packed_matches_scalar () =
  (* Pack the full 32-vector truth table into one 64-lane word set. *)
  let n_pi = 5 in
  let packed =
    Array.init n_pi (fun i ->
        let w = ref 0L in
        for idx = 0 to 31 do
          if (idx lsr i) land 1 = 1 then w := Int64.logor !w (Int64.shift_left 1L idx)
        done;
        !w)
  in
  let packed_values = Oracle.Eval.eval_packed c17 ~inputs:packed in
  for idx = 0 to 31 do
    let inputs = Array.init n_pi (fun i -> (idx lsr i) land 1 = 1) in
    let scalar = Logic.Eval.eval c17 ~inputs in
    Array.iteri
      (fun node w ->
        let bit = Int64.logand (Int64.shift_right_logical w idx) 1L = 1L in
        Alcotest.(check bool) (Printf.sprintf "node %d vector %d" node idx) scalar.(node) bit)
      packed_values
  done

let test_count_ones () =
  let n_pi = 5 in
  let packed =
    Array.init n_pi (fun i ->
        let w = ref 0L in
        for idx = 0 to 31 do
          if (idx lsr i) land 1 = 1 then w := Int64.logor !w (Int64.shift_left 1L idx)
        done;
        !w)
  in
  let ones = Oracle.Eval.count_ones c17 ~inputs:packed in
  (* Each PI is 1 in exactly half of the 32 vectors (the upper 32 lanes of
     the word are zero). *)
  Array.iter
    (fun id -> Alcotest.(check int) "PI popcount" 16 ones.(id))
    (Circuit.Netlist.primary_inputs c17)

let test_input_vector_of_int () =
  let v = Logic.Eval.input_vector_of_int c17 5 in
  Alcotest.(check (array bool)) "little-endian" [| true; false; true; false; false |] v

let test_analytic_sp_on_tree () =
  (* A fanout-free tree: the independence assumption is exact. *)
  let b = Circuit.Netlist.Builder.create ~name:"tree" in
  let a = Circuit.Netlist.Builder.input b "a" in
  let c = Circuit.Netlist.Builder.input b "b" in
  let d = Circuit.Netlist.Builder.input b "c" in
  let n1 = Circuit.Netlist.Builder.and2 b a c in
  let n2 = Circuit.Netlist.Builder.or2 b n1 d in
  Circuit.Netlist.Builder.output b n2;
  let t = Circuit.Netlist.Builder.finish b in
  let input_sp = [| 0.5; 0.4; 0.3 |] in
  let sp = Logic.Signal_prob.analytic t ~input_sp in
  let exact = exact_sp t ~input_sp in
  Array.iteri
    (fun i e -> Alcotest.(check (float 1e-9)) (Printf.sprintf "node %d" i) e sp.(i))
    exact

let test_analytic_sp_close_on_c17 () =
  (* c17 has reconvergent fanout, so analytic SPs are approximate: they
     must still land within a few percent of the exact values. *)
  let input_sp = Array.make 5 0.5 in
  let sp = Logic.Signal_prob.analytic c17 ~input_sp in
  let exact = exact_sp c17 ~input_sp in
  Array.iteri
    (fun i e ->
      Alcotest.(check bool) (Printf.sprintf "node %d within 0.1" i) true (Float.abs (sp.(i) -. e) < 0.1))
    exact

let test_monte_carlo_converges () =
  let input_sp = Array.make 5 0.5 in
  let rng = Physics.Rng.create ~seed:101 in
  let sp = Logic.Signal_prob.monte_carlo c17 ~rng ~input_sp ~n_vectors:20000 in
  let exact = exact_sp c17 ~input_sp in
  Array.iteri
    (fun i e ->
      Alcotest.(check bool) (Printf.sprintf "node %d within 0.02" i) true (Float.abs (sp.(i) -. e) < 0.02))
    exact

let test_monte_carlo_biased_inputs () =
  let input_sp = [| 0.9; 0.1; 0.5; 0.8; 0.2 |] in
  let rng = Physics.Rng.create ~seed:102 in
  let sp = Logic.Signal_prob.monte_carlo c17 ~rng ~input_sp ~n_vectors:30000 in
  let exact = exact_sp c17 ~input_sp in
  Array.iteri
    (fun i e ->
      Alcotest.(check bool) (Printf.sprintf "node %d" i) true (Float.abs (sp.(i) -. e) < 0.02))
    exact

let test_monte_carlo_deterministic () =
  let input_sp = Array.make 5 0.5 in
  let a =
    Logic.Signal_prob.monte_carlo c17 ~rng:(Physics.Rng.create ~seed:9) ~input_sp ~n_vectors:640
  in
  let b =
    Logic.Signal_prob.monte_carlo c17 ~rng:(Physics.Rng.create ~seed:9) ~input_sp ~n_vectors:640
  in
  Alcotest.(check (array (float 0.0))) "same seed, same estimate" a b

let test_uniform_inputs () =
  let sp = Logic.Signal_prob.uniform_inputs c17 0.5 in
  Alcotest.(check int) "length" 5 (Array.length sp);
  Array.iter (fun p -> Alcotest.(check (float 0.0)) "value" 0.5 p) sp

let test_sp_validation () =
  Alcotest.(check bool) "bad probability rejected" true
    (try
       ignore (Logic.Signal_prob.analytic c17 ~input_sp:[| 0.5; 0.5; 1.5; 0.5; 0.5 |]);
       false
     with Invalid_argument _ -> true)

(* Property: packed and scalar evaluation agree on random circuits/vectors. *)
let prop_packed_matches_scalar =
  QCheck.Test.make ~name:"bit-parallel simulation agrees with scalar" ~count:50
    (QCheck.make
       QCheck.Gen.(pair (oneofl [ "c17"; "c432"; "c499" ]) (int_bound 0x3FFFFFFF)))
    (fun (name, bits) ->
      let t = Circuit.Generators.by_name name in
      let n_pi = Circuit.Netlist.n_primary_inputs t in
      let inputs = Array.init n_pi (fun i -> (bits lsr (i mod 30)) land 1 = 1) in
      let scalar = Logic.Eval.eval t ~inputs in
      let packed =
        Oracle.Eval.eval_packed t ~inputs:(Array.map (fun b -> if b then -1L else 0L) inputs)
      in
      Array.for_all2 (fun s w -> if s then w = -1L else w = 0L) scalar packed)

let props = List.map QCheck_alcotest.to_alcotest [ prop_packed_matches_scalar ]

let () =
  Alcotest.run "logic"
    [
      ( "eval",
        [
          Alcotest.test_case "known vector" `Quick test_eval_known_vector;
          Alcotest.test_case "all nodes" `Quick test_eval_all_nodes;
          Alcotest.test_case "packed vs scalar" `Quick test_eval_packed_matches_scalar;
          Alcotest.test_case "count ones" `Quick test_count_ones;
          Alcotest.test_case "input vector of int" `Quick test_input_vector_of_int;
        ] );
      ( "signal-prob",
        [
          Alcotest.test_case "analytic exact on trees" `Quick test_analytic_sp_on_tree;
          Alcotest.test_case "analytic close on c17" `Quick test_analytic_sp_close_on_c17;
          Alcotest.test_case "monte carlo converges" `Quick test_monte_carlo_converges;
          Alcotest.test_case "biased inputs" `Quick test_monte_carlo_biased_inputs;
          Alcotest.test_case "deterministic" `Quick test_monte_carlo_deterministic;
          Alcotest.test_case "uniform inputs" `Quick test_uniform_inputs;
          Alcotest.test_case "validation" `Quick test_sp_validation;
        ] );
      ("properties", props);
    ]
