(* OCaml side of the serving benchmark (driven by run.py):

     perfbench gen    --workload W --seed N --seconds S
       the workload's request table and per-connection sequences
     perfbench oracle --workload W --seed N --seconds S PAIRS
       PAIRS holds "<request index>\t<response line>" lines seen on the
       wire; prints {"mismatches":[positions in PAIRS]}
     perfbench replay --workload W --seed N --seconds S
                      --variant plain|traced|layers --trace-out FILE
                      [--backend EP]...
       one variant of the in-process replay, stepped request by request
       over stdin/stdout (see Replay.replay)
     perfbench probe
       the host-speed reference kernel, stepped over stdin/stdout (see
       Probe.serve) *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 in
  let variant = ref "plain" and trace_out = ref "" and backends = ref [] and anon = ref [] in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N request-sequence seed");
      ("--seconds", Arg.Set_int seconds, "S timed-phase length the sequences are sized for");
      ("--variant", Arg.Set_string variant, "V plain, traced or layers (replay)");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome trace of the replay (replay)");
      ("--backend", Arg.String (fun b -> backends := b :: !backends), "EP serve endpoint (replay)");
    ]
  in
  let usage = "perfbench (gen|oracle|replay) --workload W --seed N --seconds S ..." in
  Arg.parse specs (fun a -> anon := a :: !anon) usage;
  let fail m =
    prerr_endline ("perfbench: " ^ m);
    exit 2
  in
  let w () =
    try Workload.generate ~workload:!workload ~seed:!seed ~seconds:!seconds
    with Invalid_argument m -> fail m
  in
  match List.rev !anon with
  | [ "probe" ] -> Probe.serve ()
  | [ "gen" ] -> Workload.output stdout (w ())
  | [ "oracle"; pairs_file ] ->
    let w = w () in
    let ic = open_in_bin pairs_file in
    let rec read acc =
      match input_line ic with
      | line -> begin
        match String.index_opt line '\t' with
        | Some k ->
          read ((int_of_string (String.sub line 0 k), String.sub line (k + 1) (String.length line - k - 1)) :: acc)
        | None -> fail "oracle: malformed pairs line"
      end
      | exception End_of_file -> List.rev acc
    in
    let pairs = read [] in
    close_in ic;
    let bad = Replay.oracle w pairs in
    print_endline
      (Server.Json.to_string
         (Server.Json.Assoc
            [ ("mismatches", Server.Json.List (List.map (fun i -> Server.Json.Int i) bad)) ]))
  | [ "replay" ] ->
    if !trace_out = "" then fail "replay needs --trace-out";
    let endpoints =
      List.rev_map
        (fun b -> match Server.Netline.endpoint_of_string b with Ok e -> e | Error m -> fail m)
        !backends
    in
    let w = w () in
    let record =
      try Replay.replay w ~variant:!variant ~endpoints ~trace_out:!trace_out
      with Invalid_argument m -> fail m
    in
    print_endline (Server.Json.to_string record)
  | _ -> fail usage
