type profile = { name : string; n_pi : int; n_po : int; n_gates : int; seed : int }

let iscas85_profiles =
  [
    { name = "c17"; n_pi = 5; n_po = 2; n_gates = 6; seed = 17 };
    { name = "c432"; n_pi = 36; n_po = 7; n_gates = 160; seed = 432 };
    { name = "c499"; n_pi = 41; n_po = 32; n_gates = 202; seed = 499 };
    { name = "c880"; n_pi = 60; n_po = 26; n_gates = 383; seed = 880 };
    { name = "c1355"; n_pi = 41; n_po = 32; n_gates = 546; seed = 1355 };
    { name = "c1908"; n_pi = 33; n_po = 25; n_gates = 880; seed = 1908 };
    { name = "c2670"; n_pi = 233; n_po = 140; n_gates = 1193; seed = 2670 };
    { name = "c3540"; n_pi = 50; n_po = 22; n_gates = 1669; seed = 3540 };
    { name = "c5315"; n_pi = 178; n_po = 123; n_gates = 2307; seed = 5315 };
    { name = "c6288"; n_pi = 32; n_po = 32; n_gates = 2406; seed = 6288 };
    { name = "c7552"; n_pi = 207; n_po = 108; n_gates = 3512; seed = 7552 };
  ]

let c17_bench =
  "# c17 (ISCAS85)\n\
   INPUT(G1)\nINPUT(G2)\nINPUT(G3)\nINPUT(G6)\nINPUT(G7)\n\
   OUTPUT(G22)\nOUTPUT(G23)\n\
   G10 = NAND(G1, G3)\n\
   G11 = NAND(G3, G6)\n\
   G16 = NAND(G2, G11)\n\
   G19 = NAND(G11, G7)\n\
   G22 = NAND(G10, G16)\n\
   G23 = NAND(G16, G19)\n"

let c17 () = Bench_io.parse_string ~name:"c17" c17_bench

(* Gate mix close to the synthesized ISCAS85 distributions: NAND/NOR
   heavy, a sprinkle of wide gates, inverters and buffers. Weights are
   relative frequencies. *)
let gate_mix =
  [
    (Cell.Stdcell.nand_ 2, 24);
    (Cell.Stdcell.nor_ 2, 14);
    (Cell.Stdcell.inv, 14);
    (Cell.Stdcell.and_ 2, 9);
    (Cell.Stdcell.or_ 2, 7);
    (Cell.Stdcell.nand_ 3, 8);
    (Cell.Stdcell.nor_ 3, 5);
    (Cell.Stdcell.and_ 3, 3);
    (Cell.Stdcell.or_ 3, 2);
    (Cell.Stdcell.nand_ 4, 3);
    (Cell.Stdcell.nor_ 4, 2);
    (Cell.Stdcell.xor2, 3);
    (Cell.Stdcell.xnor2, 1);
    (Cell.Stdcell.aoi21, 2);
    (Cell.Stdcell.oai21, 2);
    (Cell.Stdcell.buf, 1);
  ]

let pick_cell rng =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 gate_mix in
  let r = Physics.Rng.int rng total in
  let rec go acc = function
    | [] -> assert false
    | (cell, w) :: rest -> if r < acc + w then cell else go (acc + w) rest
  in
  go 0 gate_mix

let random_dag profile =
  if profile.n_pi < 1 || profile.n_gates < 1 || profile.n_po < 1 then
    invalid_arg "Generators.random_dag: counts must be positive";
  let rng = Physics.Rng.create ~seed:profile.seed in
  let b = Netlist.Builder.create ~name:profile.name in
  let pis = Array.init profile.n_pi (fun i -> Netlist.Builder.input b (Printf.sprintf "i%d" i)) in
  (* Node ids in creation order, filled in place; fanin draws index it
     newest-first, so generation stays linear in the gate count. *)
  let n_total = profile.n_pi + profile.n_gates in
  let nodes = Array.make n_total 0 in
  Array.blit pis 0 nodes 0 profile.n_pi;
  let n_nodes = ref profile.n_pi in
  let used_as_fanin = Hashtbl.create (profile.n_pi + profile.n_gates) in
  let unused_pis = Queue.create () in
  Array.iter (fun id -> Queue.add id unused_pis) pis;
  let recent = ref [] in
  let pick_fanin k =
    (* Locality bias: half the fanins come from recently created nodes,
       which stretches logic depth to ISCAS-like values; unconnected PIs
       are drained first so every input drives something. *)
    let chosen = Hashtbl.create 4 in
    let n = !n_nodes in
    let rec draw remaining acc =
      if remaining = 0 then acc
      else begin
        let candidate =
          if not (Queue.is_empty unused_pis) then Queue.pop unused_pis
          else if !recent <> [] && Physics.Rng.bool rng then
            List.nth !recent (Physics.Rng.int rng (List.length !recent))
          else nodes.(n - 1 - Physics.Rng.int rng n)
        in
        if Hashtbl.mem chosen candidate then draw remaining acc
        else begin
          Hashtbl.add chosen candidate ();
          draw (remaining - 1) (candidate :: acc)
        end
      end
    in
    Array.of_list (draw k [])
  in
  for _ = 1 to profile.n_gates do
    let rec fitting_cell () =
      let cell = pick_cell rng in
      if cell.Cell.Stdcell.n_inputs <= !n_nodes then cell else fitting_cell ()
    in
    let cell = fitting_cell () in
    let fanin = pick_fanin cell.Cell.Stdcell.n_inputs in
    Array.iter (fun f -> Hashtbl.replace used_as_fanin f ()) fanin;
    let id = Netlist.Builder.gate b ~cell fanin in
    nodes.(!n_nodes) <- id;
    incr n_nodes;
    recent := id :: (if List.length !recent >= 8 then List.filteri (fun i _ -> i < 7) !recent else !recent)
  done;
  (* Outputs: fanout-free gates first (newest first), then the most recent
     remaining gates until the PO budget is met. *)
  let newest_first = List.init n_total (fun i -> nodes.(n_total - 1 - i)) in
  let gates_newest_first = List.filter (fun id -> id >= profile.n_pi) newest_first in
  let sinks = List.filter (fun id -> not (Hashtbl.mem used_as_fanin id)) gates_newest_first in
  let non_sinks = List.filter (fun id -> Hashtbl.mem used_as_fanin id) gates_newest_first in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  let chosen = take profile.n_po (sinks @ non_sinks) in
  List.iter (fun id -> Netlist.Builder.output b id) chosen;
  Netlist.Builder.finish b

let by_name name =
  match name with
  | "c17" -> c17 ()
  | "c432" -> Interrupt.c432_like ()
  | "c499" -> Ecc.c499_like ()
  | "c1355" -> Ecc.c1355_like ()
  | "c880" -> Alu.c880_like ()
  | "c6288" -> Multiplier.c6288_like ()
  | _ -> random_dag (List.find (fun p -> p.name = name) iscas85_profiles)

let benchmark_suite () =
  List.map (fun p -> by_name p.name) iscas85_profiles

let small_suite () = List.map by_name [ "c17"; "c432"; "c499"; "c880" ]
