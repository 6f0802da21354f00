(* A fixed reference kernel that measures how fast the host runs right now.

   Shared hosts change speed by tens of percent over minutes, which moves
   every timing the benchmark takes. run.py interleaves short probes with
   the timed requests, on the server's core and while the servers are idle,
   and divides each timing by the probe's slowdown against [nominal_ms].

   The kernel uses the standard library only, so no change to the program
   can change it, and it mixes the kinds of work a request does: building
   a netlist-like graph of small blocks and a name table, a float pass over
   it in topological order, and text formatting, splitting and hashing. *)

let nodes = 1500

(* LCG with a fixed seed: every call does the same work. *)
let kernel () =
  let s = ref 12345 in
  let rand n =
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod n
  in
  let names = Hashtbl.create 64 in
  let fanin =
    Array.init nodes (fun i ->
        Hashtbl.replace names (Printf.sprintf "n%d" i) i;
        if i < 32 then [] else List.init (1 + rand 3) (fun _ -> rand i))
  in
  let v = Array.make nodes 0.5 in
  for i = 32 to nodes - 1 do
    let p = List.fold_left (fun acc j -> acc *. v.(j)) 1.0 fanin.(i) in
    v.(i) <- 1.0 -. (p *. exp (-0.01 *. float_of_int (List.length fanin.(i))))
  done;
  let b = Buffer.create (16 * nodes) in
  Array.iteri
    (fun i f ->
      Buffer.add_string b (Printf.sprintf "n%d=%.6f(" i v.(i));
      List.iter (fun j -> Buffer.add_string b (string_of_int j); Buffer.add_char b ',') f;
      Buffer.add_string b ")\n")
    fanin;
  let text = Buffer.contents b in
  let found =
    List.fold_left
      (fun acc line ->
        match String.index_opt line '=' with
        | Some k when Hashtbl.mem names (String.sub line 0 k) -> acc + 1
        | _ -> acc)
      0 (String.split_on_char '\n' text)
  in
  if found <> nodes then failwith "probe kernel";
  Digest.to_hex (Digest.string text)

(* Reads a repetition count per stdin line and answers with the
   milliseconds the repetitions took; stops at end of input. *)
let serve () =
  let digest = kernel () in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line ->
      let reps = int_of_string (String.trim line) in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        if kernel () <> digest then failwith "probe kernel"
      done;
      Printf.printf "%.6f\n%!" ((Unix.gettimeofday () -. t0) *. 1e3);
      loop ()
  in
  print_endline "ready";
  loop ()
