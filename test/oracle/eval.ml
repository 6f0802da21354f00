(* The boxed 64-lane logic simulator: one [int64] lane per vector, each
   cell's truth table applied as a sum of minterms over the fanin words.
   [Compiled.Arena.eval_packed] must match it lane for lane. *)

let apply_packed cell words =
  let n = Array.length words in
  let tt = Cell.Stdcell.truth_table cell in
  let out = ref 0L in
  Array.iteri
    (fun idx one ->
      if one then begin
        let term = ref (-1L) in
        for i = 0 to n - 1 do
          let lane = if (idx lsr i) land 1 = 1 then words.(i) else Int64.lognot words.(i) in
          term := Int64.logand !term lane
        done;
        out := Int64.logor !out !term
      end)
    tt;
  !out

let eval_packed (t : Circuit.Netlist.t) ~inputs =
  let pis = Circuit.Netlist.primary_inputs t in
  assert (Array.length inputs = Array.length pis);
  let values = Array.make (Circuit.Netlist.n_nodes t) 0L in
  Array.iteri (fun k id -> values.(id) <- inputs.(k)) pis;
  Array.iteri
    (fun i node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> ()
      | Circuit.Netlist.Gate { cell; fanin; _ } ->
        values.(i) <- apply_packed cell (Array.map (fun f -> values.(f)) fanin))
    t.Circuit.Netlist.nodes;
  values

let popcount x =
  let rec go x acc = if x = 0L then acc else go (Int64.logand x (Int64.sub x 1L)) (acc + 1) in
  go x 0

(* Per-node population count over the 64 lanes of one packed
   evaluation. *)
let count_ones t ~inputs = Array.map popcount (eval_packed t ~inputs)
