(* A netlist compiled once into a flat struct-of-arrays arena.

   The boxed [Circuit.Netlist.t] stays the frontend representation; this
   arena is the execution backend for the hot loops (logic simulation,
   STA, aging, Monte-Carlo variation). Nodes keep their netlist ids —
   the array index IS the node id, in topological order (guaranteed by
   [Netlist.create]) — so results computed here line up with boxed
   results element-for-element.

   Layout:
   - [fanin_off]/[fanin] and [fanout_off]/[fanout]: CSR-style flat
     adjacency (offsets length n+1, indices in pin order);
   - [op]/[mask]/[cell_of]: per-node gate kind. [op] classifies the
     cell's truth table (not its name) into branch-light packed kernels;
     anything unrecognized falls back to a generic minterm loop over
     [mask] (n_inputs <= 6) or the cell's boolean truth table;
   - per-gate stage structure ([stage_off], [dep_off]/[deps]) flattens
     each cell's internal stage DAG with absolute flat-stage ids, for
     the timing model.

   The 64-lane packed simulator represents a word of 64 vectors as two
   OCaml ints of 32 lanes each ([lo] bits 0-31 = lanes 0-31, [hi] bits
   0-31 = lanes 32-63): native int bitops, no Int64 boxing. Lane
   assignment and popcounts match the boxed Int64 simulator bit for
   bit, so vector counts are integer-identical. *)

let op_pi = 0
let op_and = 1
let op_nand = 2
let op_or = 3
let op_nor = 4
let op_xor = 5
let op_xnor = 6
let op_tt = 7 (* generic minterm loop over [mask], arity <= 6 *)
let op_big = 8 (* generic minterm loop over the boolean table, arity > 6 *)

type cellinfo = {
  cell : Cell.Stdcell.t;
  tt : bool array;  (* truth table, index little-endian in the fanin pins *)
  mask : int;  (* tt packed into an int; meaningful iff n_inputs <= 6 *)
  op : int;
}

type t = {
  net : Circuit.Netlist.t;
  digest : string;
  n_nodes : int;
  n_gates : int;
  pis : int array;  (* node ids, in [Netlist.primary_inputs] order *)
  outputs : int array;
  is_out : bool array;  (* per node: a primary output *)
  cells : cellinfo array;  (* unique cells, first-appearance order *)
  cell_of : int array;  (* per node: index into [cells]; -1 for PIs *)
  op : int array;
  mask : int array;
  arity : int array;
  fanin_off : int array;  (* length n_nodes + 1 *)
  fanin : int array;
  fanout_off : int array;  (* length n_nodes + 1 *)
  fanout : int array;
  fanout_pin : int array;  (* parallel to [fanout]: the consumer's pin *)
  stage_off : int array;  (* length n_nodes + 1; flat stage ids per gate *)
  n_stages : int;
  dep_off : int array;  (* length n_stages + 1 *)
  deps : int array;  (* absolute flat stage ids, cell pin order *)
}

let classify ~arity ~mask =
  if arity > 6 then op_big
  else begin
    let full = (1 lsl (1 lsl arity)) - 1 in
    let and_m = 1 lsl ((1 lsl arity) - 1) in
    let or_m = full - 1 in
    if mask = and_m then op_and
    else if mask = full lxor and_m then op_nand
    else if mask = or_m then op_or
    else if mask = 1 then op_nor
    else if arity = 2 && mask = 0b0110 then op_xor
    else if arity = 2 && mask = 0b1001 then op_xnor
    else op_tt
  end

let build (net : Circuit.Netlist.t) =
  let n = Circuit.Netlist.n_nodes net in
  let nodes = net.Circuit.Netlist.nodes in
  let cell_ids = Hashtbl.create 16 in
  let rev_cells = ref [] in
  let n_cells = ref 0 in
  let cell_id (cell : Cell.Stdcell.t) =
    match Hashtbl.find_opt cell_ids cell.Cell.Stdcell.name with
    | Some id -> id
    | None ->
      let tt = Cell.Stdcell.truth_table cell in
      let mask =
        if cell.Cell.Stdcell.n_inputs <= 6 then begin
          let m = ref 0 in
          Array.iteri (fun idx one -> if one then m := !m lor (1 lsl idx)) tt;
          !m
        end
        else 0
      in
      let op = classify ~arity:cell.Cell.Stdcell.n_inputs ~mask in
      let id = !n_cells in
      incr n_cells;
      rev_cells := { cell; tt; mask; op } :: !rev_cells;
      Hashtbl.add cell_ids cell.Cell.Stdcell.name id;
      id
  in
  let cell_of = Array.make n (-1) in
  let op = Array.make n op_pi in
  let mask = Array.make n 0 in
  let arity = Array.make n 0 in
  let fanin_off = Array.make (n + 1) 0 in
  let stage_off = Array.make (n + 1) 0 in
  let n_gates = ref 0 in
  Array.iteri
    (fun i node ->
      (match node with
      | Circuit.Netlist.Primary_input _ -> ()
      | Circuit.Netlist.Gate { cell; fanin; _ } ->
        incr n_gates;
        let cid = cell_id cell in
        cell_of.(i) <- cid;
        let ci = List.nth !rev_cells (!n_cells - 1 - cid) in
        op.(i) <- ci.op;
        mask.(i) <- ci.mask;
        arity.(i) <- Array.length fanin;
        fanin_off.(i + 1) <- Array.length fanin;
        stage_off.(i + 1) <- Array.length cell.Cell.Stdcell.stages);
      fanin_off.(i + 1) <- fanin_off.(i) + fanin_off.(i + 1);
      stage_off.(i + 1) <- stage_off.(i) + stage_off.(i + 1))
    nodes;
  let fanin = Array.make fanin_off.(n) 0 in
  Array.iteri
    (fun i node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> ()
      | Circuit.Netlist.Gate { fanin = fi; _ } ->
        Array.iteri (fun j f -> fanin.(fanin_off.(i) + j) <- f) fi)
    nodes;
  (* CSR fanout from the fanin lists: per driver, (consumer, pin) in
     consumer then pin order, the order of [Netlist.fanout_pins]. *)
  let fanout_off = Array.make (n + 1) 0 in
  Array.iter (fun f -> fanout_off.(f + 1) <- fanout_off.(f + 1) + 1) fanin;
  for i = 0 to n - 1 do
    fanout_off.(i + 1) <- fanout_off.(i) + fanout_off.(i + 1)
  done;
  let fanout = Array.make fanout_off.(n) 0 in
  let fanout_pin = Array.make fanout_off.(n) 0 in
  let cursor = Array.copy fanout_off in
  Array.iteri
    (fun i node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> ()
      | Circuit.Netlist.Gate { fanin = fi; _ } ->
        Array.iteri
          (fun pin f ->
            fanout.(cursor.(f)) <- i;
            fanout_pin.(cursor.(f)) <- pin;
            cursor.(f) <- cursor.(f) + 1)
          fi)
    nodes;
  let is_out = Array.make n false in
  Array.iter (fun o -> is_out.(o) <- true) net.Circuit.Netlist.outputs;
  let n_stages = stage_off.(n) in
  let dep_counts = Array.make (n_stages + 1) 0 in
  let stage_deps = Array.make n_stages [] in
  Array.iteri
    (fun i node ->
      match node with
      | Circuit.Netlist.Primary_input _ -> ()
      | Circuit.Netlist.Gate { cell; _ } ->
        Array.iteri
          (fun s stage ->
            let flat = stage_off.(i) + s in
            let local = Cell.Cell_delay.stage_deps stage in
            stage_deps.(flat) <- List.map (fun d -> stage_off.(i) + d) local;
            dep_counts.(flat + 1) <- List.length local)
          cell.Cell.Stdcell.stages)
    nodes;
  let dep_off = dep_counts in
  for s = 0 to n_stages - 1 do
    dep_off.(s + 1) <- dep_off.(s) + dep_off.(s + 1)
  done;
  let deps = Array.make dep_off.(n_stages) 0 in
  Array.iteri
    (fun flat local -> List.iteri (fun j d -> deps.(dep_off.(flat) + j) <- d) local)
    stage_deps;
  {
    net;
    digest = Circuit.Netlist.digest net;
    n_nodes = n;
    n_gates = !n_gates;
    pis = Circuit.Netlist.primary_inputs net;
    outputs = net.Circuit.Netlist.outputs;
    is_out;
    cells = Array.of_list (List.rev !rev_cells);
    cell_of;
    op;
    mask;
    arity;
    fanin_off;
    fanin;
    fanout_off;
    fanout;
    fanout_pin;
    stage_off;
    n_stages;
    dep_off;
    deps;
  }

(* --- Compile cache ---

   Two levels: a small physical-equality ring (netlists are immutable,
   so [==] is a sound hit — and the common case: benches, the server's
   prepared pipeline and search loops re-analyze the same netlist value
   thousands of times), then a digest-keyed bounded memo for structural
   re-lookup (e.g. a netlist re-parsed from the wire). *)

let ring_size = 8
let ring : (Circuit.Netlist.t * t) option array = Array.make ring_size None
let ring_m = Mutex.create ()
let ring_pos = ref 0
let by_digest : t Parallel.Cache.t = Parallel.Cache.create ~capacity:16 ()

let get net =
  Mutex.lock ring_m;
  let hit = ref None in
  Array.iter
    (function Some (k, v) when k == net -> hit := Some v | _ -> ())
    ring;
  Mutex.unlock ring_m;
  match !hit with
  | Some a -> a
  | None ->
    let a, _ =
      Parallel.Cache.find_or_add by_digest (Circuit.Netlist.digest net) (fun () -> build net)
    in
    Mutex.lock ring_m;
    ring.(!ring_pos) <- Some (net, a);
    ring_pos := (!ring_pos + 1) mod ring_size;
    Mutex.unlock ring_m;
    a

(* A per-gate-stage function ([Circuit_aging]'s threshold-shift maps)
   laid out on the flat stage ids: node ids are netlist ids, and
   primary inputs own no stages. *)
let stage_values a f =
  let v = Array.make a.n_stages 0.0 in
  for i = 0 to a.n_nodes - 1 do
    for s = 0 to a.stage_off.(i + 1) - a.stage_off.(i) - 1 do
      v.(a.stage_off.(i) + s) <- f ~gate:i ~stage:s
    done
  done;
  v

(* --- Scalar (one-vector) evaluation --- *)

(* One gate's step: its fanin index into [idxs], its value into [vals].
   Incremental sessions re-run it for the gates of a dirty cone. *)
let[@inline] eval_node a ~vals ~idxs i =
  let b = a.fanin_off.(i) in
  let k = a.fanin_off.(i + 1) - b in
  let idx = ref 0 in
  for j = 0 to k - 1 do
    idx := !idx lor (vals.(a.fanin.(b + j)) lsl j)
  done;
  idxs.(i) <- !idx;
  vals.(i) <-
    (if k <= 6 then (a.mask.(i) lsr !idx) land 1
     else if a.cells.(a.cell_of.(i)).tt.(!idx) then 1
     else 0)

(* Values are ints 0/1 in [vals] (the caller pre-fills PI rows); the
   little-endian fanin index of each gate is left in [idxs] for table
   lookups downstream (leakage). Equivalent to [Stdcell.eval] gate by
   gate: [mask] bit [idx] is [truth_table.(idx)] by construction. *)
let eval_scalar a ~vals ~idxs =
  for i = 0 to a.n_nodes - 1 do
    if a.op.(i) <> op_pi then eval_node a ~vals ~idxs i
  done

let eval_bool a ~inputs ~vals ~idxs =
  Array.iteri (fun k id -> vals.(id) <- (if inputs.(k) then 1 else 0)) a.pis;
  eval_scalar a ~vals ~idxs

(* --- 64-lane packed evaluation (2 x 32-bit native words) --- *)

let m32 = 0xFFFFFFFF

let eval_packed a ~lo ~hi =
  let fo = a.fanin_off and fi = a.fanin in
  for i = 0 to a.n_nodes - 1 do
    let op = a.op.(i) in
    if op <> op_pi then begin
      let b = fo.(i) in
      let k = fo.(i + 1) - b in
      if op = op_and || op = op_nand then begin
        let f0 = fi.(b) in
        let al = ref lo.(f0) and ah = ref hi.(f0) in
        for j = 1 to k - 1 do
          let f = fi.(b + j) in
          al := !al land lo.(f);
          ah := !ah land hi.(f)
        done;
        if op = op_nand then begin
          al := !al lxor m32;
          ah := !ah lxor m32
        end;
        lo.(i) <- !al;
        hi.(i) <- !ah
      end
      else if op = op_or || op = op_nor then begin
        let f0 = fi.(b) in
        let al = ref lo.(f0) and ah = ref hi.(f0) in
        for j = 1 to k - 1 do
          let f = fi.(b + j) in
          al := !al lor lo.(f);
          ah := !ah lor hi.(f)
        done;
        if op = op_nor then begin
          al := !al lxor m32;
          ah := !ah lxor m32
        end;
        lo.(i) <- !al;
        hi.(i) <- !ah
      end
      else if op = op_xor || op = op_xnor then begin
        let f0 = fi.(b) and f1 = fi.(b + 1) in
        let al = lo.(f0) lxor lo.(f1) and ah = hi.(f0) lxor hi.(f1) in
        if op = op_xnor then begin
          lo.(i) <- al lxor m32;
          hi.(i) <- ah lxor m32
        end
        else begin
          lo.(i) <- al;
          hi.(i) <- ah
        end
      end
      else begin
        (* Generic sum of minterms over the truth table. *)
        let mask = a.mask.(i) in
        let tt = if op = op_big then a.cells.(a.cell_of.(i)).tt else [||] in
        let out_l = ref 0 and out_h = ref 0 in
        for idx = 0 to (1 lsl k) - 1 do
          let one = if op = op_big then tt.(idx) else (mask lsr idx) land 1 = 1 in
          if one then begin
            let tl = ref m32 and th = ref m32 in
            for j = 0 to k - 1 do
              let f = fi.(b + j) in
              if (idx lsr j) land 1 = 1 then begin
                tl := !tl land lo.(f);
                th := !th land hi.(f)
              end
              else begin
                tl := !tl land (lo.(f) lxor m32);
                th := !th land (hi.(f) lxor m32)
              end
            done;
            out_l := !out_l lor !tl;
            out_h := !out_h lor !th
          end
        done;
        lo.(i) <- !out_l;
        hi.(i) <- !out_h
      end
    end
  done

let popcount32 x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0
