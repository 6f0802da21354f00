type choice = { vector : bool array; leakage : float; degradation : float; aged_delay : float }

type result = { best : choice; all : choice list; fresh_delay : float; spread : float }

let co_optimize ?par ?budget ?currents config tables t ~node_sp ~candidates =
  if candidates = [] then invalid_arg "Co_opt.co_optimize: no candidates";
  let p = match par with Some p -> p | None -> Parallel.Pool.default () in
  let cands = Array.of_list candidates in
  let n = Array.length cands in
  (* The MLV set is a cluster of highly correlated vectors, so one
     full-analysis session per worker chunk answers each candidate from
     the previous one's resident state (logic, threshold shifts, aged
     arrivals) over the dirty cone only. Results are bit-identical to
     [Circuit_aging.analyze] (pinned by test_incremental). The context
     follows [config]: its shift pairs come from the memo
     [Circuit_aging.analyze] reads, so repeated searches under one
     config share the tables; a PBTI config adds the NMOS pair. *)
  let ictx =
    let currents =
      match currents with Some c -> c | None -> Leakage.Circuit_leakage.node_currents tables t
    in
    let a = Compiled.Arena.get t in
    let shifts polarity = Aging.Circuit_aging.shifts ~polarity config a ~node_sp in
    Compiled.Incremental.Analysis.ctx ~currents ~shifts:(shifts `Pmos)
      ?shifts_n:(Option.map (fun _ -> shifts `Nmos) config.Aging.Circuit_aging.pbti_scale)
      ()
  in
  let evaluated =
    Array.make n { vector = [||]; leakage = 0.0; degradation = 0.0; aged_delay = 0.0 }
  in
  let chunk = max 1 ((n + Parallel.Pool.domains p - 1) / Parallel.Pool.domains p) in
  Parallel.Pool.iter_ranges p ~chunk ?budget n (fun lo hi ->
      let s = Compiled.Incremental.Analysis.session ictx in
      for i = lo to hi - 1 do
        Option.iter Parallel.Budget.check budget;
        let c = cands.(i) in
        Compiled.Incremental.Analysis.set_vector s c.Mlv.vector;
        evaluated.(i) <-
          {
            vector = c.Mlv.vector;
            leakage = c.Mlv.leakage;
            degradation = Compiled.Incremental.Analysis.degradation s;
            aged_delay = Compiled.Incremental.Analysis.aged_delay s;
          }
      done;
      Compiled.Incremental.emit_stats "co_opt.chunk"
        (Compiled.Incremental.Analysis.stats s)
        ~n_nodes:(Compiled.Incremental.Analysis.n_nodes s));
  let fresh_delay = (Compiled.Incremental.Analysis.fresh_result ictx).Compiled.Timing.max_delay in
  (* Candidates keep their order and the sort breaks ties on the
     vector, so the result is independent of the domain count. *)
  let all =
    List.sort
      (fun a b ->
        match compare a.degradation b.degradation with
        | 0 -> compare (Mlv.vector_key a.vector) (Mlv.vector_key b.vector)
        | c -> c)
      (Array.to_list evaluated)
  in
  let best = List.hd all in
  let worst = List.nth all (List.length all - 1) in
  { best; all; fresh_delay; spread = worst.degradation -. best.degradation }

let run ?par ?budget ?currents config tables t ~node_sp ~rng ?pool ?tolerance () =
  let candidates, stats = Mlv.probability_based ?par ?budget tables t ~rng ?pool ?tolerance () in
  (co_optimize ?par ?budget ?currents config tables t ~node_sp ~candidates, stats)
