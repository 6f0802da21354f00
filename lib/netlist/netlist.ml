type node =
  | Primary_input of { name : string }
  | Gate of { cell : Cell.Stdcell.t; fanin : int array; name : string }

type t = { name : string; nodes : node array; outputs : int array }

let node_name_raw = function Primary_input { name } | Gate { name; _ } -> name

let is_topological nodes =
  let ok = ref true in
  Array.iteri
    (fun i n ->
      match n with
      | Primary_input _ -> ()
      | Gate { fanin; _ } -> Array.iter (fun f -> if f >= i then ok := false) fanin)
    nodes;
  !ok

(* Kahn topological sort; returns the permutation new_id.(old_id). *)
let topo_permutation nodes =
  let n = Array.length nodes in
  let indegree = Array.make n 0 in
  let dependents = Array.make n [] in
  Array.iteri
    (fun i node ->
      match node with
      | Primary_input _ -> ()
      | Gate { fanin; _ } ->
        indegree.(i) <- Array.length fanin;
        Array.iter (fun f -> dependents.(f) <- i :: dependents.(f)) fanin)
    nodes;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indegree;
  let order = Array.make n (-1) in
  let next = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    order.(i) <- !next;
    incr next;
    List.iter
      (fun j ->
        indegree.(j) <- indegree.(j) - 1;
        if indegree.(j) = 0 then Queue.add j queue)
      dependents.(i)
  done;
  if !next < n then invalid_arg "Netlist.create: combinational cycle detected";
  order

let validate_arities name nodes =
  Array.iteri
    (fun i node ->
      match node with
      | Primary_input _ -> ()
      | Gate { cell; fanin; name = gname } ->
        if Array.length fanin <> cell.Cell.Stdcell.n_inputs then
          invalid_arg
            (Printf.sprintf "Netlist %s: gate %s has %d fanins for cell %s/%d" name gname
               (Array.length fanin) cell.Cell.Stdcell.name cell.Cell.Stdcell.n_inputs);
        Array.iter
          (fun f ->
            if f < 0 || f >= Array.length nodes || f = i then
              invalid_arg (Printf.sprintf "Netlist %s: gate %s has dangling fanin %d" name gname f))
          fanin)
    nodes

let validate_names name nodes =
  let seen = Hashtbl.create (Array.length nodes) in
  Array.iter
    (fun node ->
      let n = node_name_raw node in
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Netlist %s: duplicate node name %s" name n);
      Hashtbl.add seen n ())
    nodes

let create ~name nodes ~outputs =
  if Array.length outputs = 0 then invalid_arg "Netlist.create: no primary outputs";
  validate_arities name nodes;
  validate_names name nodes;
  Array.iter
    (fun o ->
      if o < 0 || o >= Array.length nodes then invalid_arg "Netlist.create: dangling output")
    outputs;
  if is_topological nodes then { name; nodes; outputs }
  else begin
    let perm = topo_permutation nodes in
    let sorted = Array.make (Array.length nodes) nodes.(0) in
    Array.iteri
      (fun old_id node ->
        let renumbered =
          match node with
          | Primary_input _ -> node
          | Gate g -> Gate { g with fanin = Array.map (fun f -> perm.(f)) g.fanin }
        in
        sorted.(perm.(old_id)) <- renumbered)
      nodes;
    { name; nodes = sorted; outputs = Array.map (fun o -> perm.(o)) outputs }
  end

let n_nodes t = Array.length t.nodes

let n_gates t =
  Array.fold_left (fun acc -> function Primary_input _ -> acc | Gate _ -> acc + 1) 0 t.nodes

let primary_inputs t =
  let ids = ref [] in
  Array.iteri (fun i -> function Primary_input _ -> ids := i :: !ids | Gate _ -> ()) t.nodes;
  Array.of_list (List.rev !ids)

let n_primary_inputs t = Array.length (primary_inputs t)

let node_name t i = node_name_raw t.nodes.(i)

let fanout_pins t =
  let result = Array.make (n_nodes t) [] in
  Array.iteri
    (fun i node ->
      match node with
      | Primary_input _ -> ()
      | Gate { fanin; _ } -> Array.iteri (fun pin f -> result.(f) <- (i, pin) :: result.(f)) fanin)
    t.nodes;
  Array.map (fun l -> Array.of_list (List.rev l)) result

let fanout t = Array.map (Array.map fst) (fanout_pins t)

let is_output t i = Array.exists (fun o -> o = i) t.outputs

(* The fresh critical delay is the latest primary-output arrival, and a
   primary input arrives at 0, so it is 0 exactly when no output is a
   gate. *)
let timing_problem t =
  if Array.exists (fun o -> match t.nodes.(o) with Gate _ -> true | Primary_input _ -> false) t.outputs
  then None
  else Some "no primary output is driven by a gate, so the circuit has no path to time"

let levels t =
  let lev = Array.make (n_nodes t) 0 in
  Array.iteri
    (fun i node ->
      match node with
      | Primary_input _ -> ()
      | Gate { fanin; _ } ->
        lev.(i) <- 1 + Array.fold_left (fun acc f -> Stdlib.max acc lev.(f)) 0 fanin)
    t.nodes;
  lev

let depth t = Array.fold_left Stdlib.max 0 (levels t)

let digest t =
  let buf = Buffer.create 1024 in
  Array.iter
    (fun node ->
      match node with
      | Primary_input _ -> Buffer.add_string buf "I;"
      | Gate { cell; fanin; _ } ->
        Buffer.add_string buf cell.Cell.Stdcell.name;
        Array.iter (fun f -> Buffer.add_string buf (Printf.sprintf ",%d" f)) fanin;
        Buffer.add_char buf ';')
    t.nodes;
  Buffer.add_char buf '@';
  Array.iter (fun o -> Buffer.add_string buf (Printf.sprintf "%d," o)) t.outputs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

type stats = {
  name : string;
  n_pi : int;
  n_po : int;
  n_gates : int;
  depth : int;
  by_cell : (string * int) list;
}

let stats t =
  let counts = Hashtbl.create 16 in
  Array.iter
    (function
      | Primary_input _ -> ()
      | Gate { cell; _ } ->
        let c = try Hashtbl.find counts cell.Cell.Stdcell.name with Not_found -> 0 in
        Hashtbl.replace counts cell.Cell.Stdcell.name (c + 1))
    t.nodes;
  let by_cell =
    List.sort compare (Hashtbl.fold (fun name c acc -> (name, c) :: acc) counts [])
  in
  {
    name = t.name;
    n_pi = n_primary_inputs t;
    n_po = Array.length t.outputs;
    n_gates = n_gates t;
    depth = depth t;
    by_cell;
  }

let pp_stats fmt s =
  Format.fprintf fmt "%s: %d PI, %d PO, %d gates, depth %d [%a]" s.name s.n_pi s.n_po s.n_gates
    s.depth
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
       (fun fmt (n, c) -> Format.fprintf fmt "%s:%d" n c))
    s.by_cell

let make_netlist = create

module Builder = struct

  type t = {
    bname : string;
    mutable rev_nodes : node list;
    mutable count : int;
    mutable outs : int list;
    names : (string, unit) Hashtbl.t;
  }

  let create ~name = { bname = name; rev_nodes = []; count = 0; outs = []; names = Hashtbl.create 64 }

  let add b node =
    let id = b.count in
    b.rev_nodes <- node :: b.rev_nodes;
    b.count <- b.count + 1;
    id

  let fresh_name b base =
    if not (Hashtbl.mem b.names base) then begin
      Hashtbl.add b.names base ();
      base
    end
    else begin
      let rec try_suffix i =
        let candidate = Printf.sprintf "%s_%d" base i in
        if Hashtbl.mem b.names candidate then try_suffix (i + 1)
        else begin
          Hashtbl.add b.names candidate ();
          candidate
        end
      in
      try_suffix 1
    end

  let input b name = add b (Primary_input { name = fresh_name b name })

  let gate b ?name ~cell fanin =
    if Array.length fanin <> cell.Cell.Stdcell.n_inputs then
      invalid_arg
        (Printf.sprintf "Builder.gate: %s expects %d inputs, got %d" cell.Cell.Stdcell.name
           cell.Cell.Stdcell.n_inputs (Array.length fanin));
    Array.iter
      (fun f -> if f < 0 || f >= b.count then invalid_arg "Builder.gate: unknown fanin id")
      fanin;
    let base =
      match name with
      | Some n -> n
      | None -> String.lowercase_ascii (Printf.sprintf "%s_%d" cell.Cell.Stdcell.name b.count)
    in
    add b (Gate { cell; fanin; name = fresh_name b base })

  let not_ b a = gate b ~cell:Cell.Stdcell.inv [| a |]
  let and2 b x y = gate b ~cell:(Cell.Stdcell.and_ 2) [| x; y |]
  let or2 b x y = gate b ~cell:(Cell.Stdcell.or_ 2) [| x; y |]
  let xor2 b x y = gate b ~cell:Cell.Stdcell.xor2 [| x; y |]
  let nand2 b x y = gate b ~cell:(Cell.Stdcell.nand_ 2) [| x; y |]
  let nor2 b x y = gate b ~cell:(Cell.Stdcell.nor_ 2) [| x; y |]

  let output b id =
    if id < 0 || id >= b.count then invalid_arg "Builder.output: unknown id";
    if not (List.mem id b.outs) then b.outs <- id :: b.outs

  let finish b =
    make_netlist ~name:b.bname
      (Array.of_list (List.rev b.rev_nodes))
      ~outputs:(Array.of_list (List.rev b.outs))
end
