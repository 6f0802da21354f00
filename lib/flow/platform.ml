type sp_method = Sp_analytic | Sp_monte_carlo of { n_vectors : int; seed : int }

type config = {
  aging : Aging.Circuit_aging.config;
  input_sp : float;
  sp_method : sp_method;
  leakage_temp : float;
  pool : Parallel.Pool.t option;
  budget : Parallel.Budget.t;
}

let default_config ?aging ?pool ?(budget = Parallel.Budget.unlimited) () =
  let aging = match aging with Some a -> a | None -> Aging.Circuit_aging.default_config () in
  {
    aging;
    input_sp = 0.5;
    sp_method = Sp_monte_carlo { n_vectors = 4096; seed = 7 };
    leakage_temp = 400.0;
    pool;
    budget;
  }

(* Canonical fingerprints: every numeric field rendered at full float
   precision into one buffer, then hashed. Two configs with equal
   fingerprints are field-for-field equal on everything the hashed
   computation reads, so fingerprints are sound cache keys. The [pool]
   and [budget] fields are deliberately excluded: the domain count never
   changes any result (see Parallel.Pool) and a budget only decides
   whether a computation finishes, never what it computes — so configs
   differing only in those must share cache entries.

   The fields are walked once per use by [prepare_fields] /
   [config_fields] into a [Compiled.Memo.Fp.sink]: [num] takes a float,
   [label] a string. The technology, R-D parameter and schedule walks are
   [Compiled.Memo.Fp]'s, the ones the compiled memo keys use. One sink
   renders the fingerprint text; the other builds the memo key below from
   the same walk, so the key covers exactly what the rendering reads. *)

type sink = Compiled.Memo.Fp.sink = { num : float -> unit; label : string -> unit }

let prepare_fields k cfg =
  Compiled.Memo.Fp.tech k cfg.aging.Aging.Circuit_aging.tech;
  k.num cfg.input_sp;
  (match cfg.sp_method with
  | Sp_analytic -> k.label "analytic"
  | Sp_monte_carlo { n_vectors; seed } -> k.label (Printf.sprintf "mc:%d:%d" n_vectors seed));
  k.num cfg.leakage_temp

let config_fields k cfg =
  prepare_fields k cfg;
  let a = cfg.aging in
  Compiled.Memo.Fp.params k a.Aging.Circuit_aging.params;
  Compiled.Memo.Fp.schedule k a.Aging.Circuit_aging.schedule;
  k.num a.Aging.Circuit_aging.time;
  match a.Aging.Circuit_aging.pbti_scale with None -> k.label "nopbti" | Some x -> k.num x

let render fields cfg =
  let buf = Buffer.create 512 in
  let label x =
    Buffer.add_string buf x;
    Buffer.add_char buf ';'
  in
  fields { num = (fun x -> label (Printf.sprintf "%.17g" x)); label } cfg;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Fingerprint memo. Rendering ~35 floats with "%.17g" costs tens of
   microseconds, and a request asks for its fingerprints up to three
   times (result key, prepared key, payload; the router once more to
   route it) while a process sees few distinct configs. The key writes
   the walk token by token in a prefix-free code: 'f' and the float's
   8 IEEE bytes, or 's', the decimal length, ';' and the string. Equal
   keys therefore mean the same tokens, bit for bit, so the same
   rendering: a hit cannot return a stale fingerprint, and 0.0 and
   -0.0 (which render differently) get different keys. The memo keeps
   the most recently used fingerprints, as many as the service's result
   cache holds entries. *)

let fingerprint_memo_capacity = 256
let memo : string Parallel.Cache.t = Parallel.Cache.create ~capacity:fingerprint_memo_capacity ()

let memo_key tag fields cfg =
  let buf = Buffer.create 512 in
  Buffer.add_char buf tag;
  let num x =
    Buffer.add_char buf 'f';
    Buffer.add_int64_le buf (Int64.bits_of_float x)
  in
  let label x =
    Buffer.add_char buf 's';
    Buffer.add_string buf (string_of_int (String.length x));
    Buffer.add_char buf ';';
    Buffer.add_string buf x
  in
  fields { num; label } cfg;
  Buffer.contents buf

let memoized tag fields cfg =
  fst (Parallel.Cache.find_or_add memo (memo_key tag fields cfg) (fun () -> render fields cfg))

let prepare_fingerprint cfg = memoized 'p' prepare_fields cfg
let config_fingerprint cfg = memoized 'c' config_fields cfg

type prepared = {
  net : Circuit.Netlist.t;
  sp : float array;
  tabs : Leakage.Circuit_leakage.tables;
  arena : Compiled.Arena.t;
      (* Warm compiled netlist core: holding it here keeps it alive for
         the lifetime of the prepared pipeline (the server's prepared
         cache), beyond the bounded rings inside [Compiled]. *)
  currents : float array array;
      (* Per-node leakage LUT rows, read by the standby leakage of every
         analysis and by the IVC sessions. *)
  stats : Circuit.Netlist.stats;
  active_leakage : float;
      (* Everything above depends only on the netlist and the prepare
         fields of the config, so it is computed once here. Anything
         derived from the aging config (lifetime, schedule, R-D
         parameters) is not: those fields are outside
         [prepare_fingerprint], so requests sharing this pipeline may
         differ in them. *)
}

(* Pipeline stage boundaries poll the request budget: a deadline-bounded
   request abandons the flow between stages (and, via the pool, between
   chunks inside a stage) with Parallel.Budget.Deadline_exceeded. *)
let stage config = Parallel.Budget.check config.budget

(* Stage spans: every pipeline stage of the Fig. 6 flow is a nested
   span, so a Chrome trace (or the flame summary) attributes wall time
   to signal-probability estimation, leakage-table construction, the
   R-D aging chain + STA, and leakage evaluation separately. With no
   collector installed, [Obs.Trace.with_span] is one atomic load. *)
let span_args ~name ~gates = [ ("circuit", Obs.Fields.Str name); ("gates", Obs.Fields.Int gates) ]

let prepared_args p =
  span_args ~name:p.net.Circuit.Netlist.name ~gates:p.arena.Compiled.Arena.n_gates

let prepare config (net : Circuit.Netlist.t) =
  Obs.Trace.with_span
    ~args:(span_args ~name:net.Circuit.Netlist.name ~gates:(Circuit.Netlist.n_gates net))
    "flow.prepare"
  @@ fun () ->
  stage config;
  let input_sp = Logic.Signal_prob.uniform_inputs net config.input_sp in
  let sp =
    Obs.Trace.with_span "flow.signal_prob" @@ fun () ->
    match config.sp_method with
    | Sp_analytic -> Logic.Signal_prob.analytic net ~input_sp
    | Sp_monte_carlo { n_vectors; seed } ->
      Logic.Signal_prob.monte_carlo ?pool:config.pool ~budget:config.budget net
        ~rng:(Physics.Rng.create ~seed) ~input_sp ~n_vectors
  in
  stage config;
  let tabs =
    Obs.Trace.with_span "flow.leakage_tables" @@ fun () ->
    Leakage.Circuit_leakage.build_tables config.aging.Aging.Circuit_aging.tech net
      ~temp_k:config.leakage_temp
  in
  stage config;
  let arena =
    (* Compile the netlist and warm the timing constants at the active
       temperature so the first analyze/IVC request pays no compile
       cost. Both are digest-keyed, so concurrent prepares of the same
       netlist share one arena. *)
    Obs.Trace.with_span "flow.compile" @@ fun () ->
    let a = Compiled.Arena.get net in
    let tech = config.aging.Aging.Circuit_aging.tech in
    let temp_k = config.aging.Aging.Circuit_aging.schedule.Nbti.Schedule.t_ref in
    ignore (Compiled.Timing.get a ~tech ~temp_k ());
    a
  in
  {
    net;
    sp;
    tabs;
    arena;
    currents = Leakage.Circuit_leakage.node_currents tabs net;
    stats = Circuit.Netlist.stats net;
    active_leakage = Leakage.Circuit_leakage.expected_leakage tabs net ~node_sp:sp;
  }

let netlist p = p.net
let node_sp p = p.sp
let tables p = p.tabs
let arena p = p.arena

type analysis = {
  stats : Circuit.Netlist.stats;
  fresh_delay : float;
  aged_delay : float;
  degradation : float;
  max_dvth : float;
  standby_leakage : float;
  active_leakage : float;
}

let analyze config p ~standby =
  Obs.Trace.with_span ~args:(prepared_args p) "flow.analyze" @@ fun () ->
  stage config;
  (* A vector is simulated once, in [scratch]: the aging analysis picks
     its threshold shifts from it and the standby leakage sums its
     per-gate LUT entries. *)
  let scratch = Compiled.Logic.leak_scratch p.arena in
  let a =
    Obs.Trace.with_span "flow.aging" @@ fun () ->
    Aging.Circuit_aging.analyze_arena config.aging p.arena ~scratch ~node_sp:p.sp ~standby ()
  in
  stage config;
  Obs.Trace.with_span "flow.leakage" @@ fun () ->
  let standby_leakage =
    match standby with
    | Aging.Circuit_aging.Standby_vector _ ->
      Compiled.Logic.leakage_of_idxs p.arena ~currents:p.currents scratch.Compiled.Logic.idxs
    | Aging.Circuit_aging.Standby_all_stressed ->
      Leakage.Circuit_leakage.worst_standby_bound p.tabs p.net
    | Aging.Circuit_aging.Standby_all_relaxed ->
      Leakage.Circuit_leakage.best_standby_bound p.tabs p.net
  in
  {
    stats = p.stats;
    fresh_delay = a.Aging.Circuit_aging.fresh.Compiled.Timing.max_delay;
    aged_delay = a.Aging.Circuit_aging.aged.Compiled.Timing.max_delay;
    degradation = a.Aging.Circuit_aging.degradation;
    max_dvth = a.Aging.Circuit_aging.max_dvth;
    standby_leakage;
    active_leakage = p.active_leakage;
  }

let optimize_ivc config p ~rng ?pool ?tolerance () =
  Obs.Trace.with_span ~args:(prepared_args p) "flow.ivc" @@ fun () ->
  stage config;
  Ivc.Co_opt.run ?par:config.pool ~budget:config.budget ~currents:p.currents config.aging p.tabs
    p.net ~node_sp:p.sp ~rng ?pool ?tolerance ()

let optimize_st config p ~style ~beta ?vth_st ?nbti_aware () =
  Obs.Trace.with_span ~args:(prepared_args p) "flow.sleep" @@ fun () ->
  stage config;
  Sleep.St_insertion.analyze config.aging p.net ~node_sp:p.sp ~style ~beta ?vth_st ?nbti_aware ()

let internal_node_potential config p = Ivc.Internal_node.potential config.aging p.net ~node_sp:p.sp
