type parent = Root | Span of int | Remote of string

type span = {
  name : string;
  cat : string;
  path : string;
  cid : string option;
  trace_id : string option;
  seq : int;
  parent : parent;
  ts_us : float;
  dur_us : float;
  tid : int;
  ok : bool;
  args : (string * Fields.t) list;
}

type t = {
  capacity : int;
  buf : span option array;
  mutable total : int;  (* spans ever recorded; buf index = total mod capacity *)
  lock : Mutex.t;
  t0_us : float;
}

(* The process-wide sink. A single atomic load is the entire disabled
   cost of every instrumentation point. *)
let sink : t option Atomic.t = Atomic.make None

let now_us () = Unix.gettimeofday () *. 1e6

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  { capacity; buf = Array.make capacity None; total = 0; lock = Mutex.create (); t0_us = now_us () }

let install t = Atomic.set sink (Some t)
let uninstall () = Atomic.set sink None
let installed () = Atomic.get sink
let enabled () = Atomic.get sink <> None

let push t span =
  Mutex.lock t.lock;
  t.buf.(t.total mod t.capacity) <- Some span;
  t.total <- t.total + 1;
  Mutex.unlock t.lock

let spans t =
  Mutex.lock t.lock;
  let total = t.total in
  let n = min total t.capacity in
  let out =
    List.init n (fun i ->
        match t.buf.((total - n + i) mod t.capacity) with Some s -> s | None -> assert false)
  in
  Mutex.unlock t.lock;
  out

let dropped t =
  Mutex.lock t.lock;
  let d = max 0 (t.total - t.capacity) in
  Mutex.unlock t.lock;
  d

let clear t =
  Mutex.lock t.lock;
  Array.fill t.buf 0 t.capacity None;
  t.total <- 0;
  Mutex.unlock t.lock

(* --- span identity --- *)

(* Span ids are a process-local sequence; the wire/export form prefixes
   the pid so ids stay unique across a merged multi-process trace. The
   hot path only pays an atomic increment — formatting happens at
   export / propagation time. *)
let seq_counter = Atomic.make 0
let next_seq () = Atomic.fetch_and_add seq_counter 1 + 1
let pid = lazy (Unix.getpid ())
let span_hex seq = Printf.sprintf "%08x%08x" (Lazy.force pid land 0xffffffff) (seq land 0xffffffff)

let trace_counter = Atomic.make 0

let new_trace_id () =
  (* 32 hex chars, unique across processes and calls: digest of pid,
     wall clock and a process-local counter. *)
  let c = Atomic.fetch_and_add trace_counter 1 in
  Digest.to_hex
    (Digest.string (Printf.sprintf "%d-%.9f-%d" (Lazy.force pid) (Unix.gettimeofday ()) c))

(* --- per-thread ancestry --- *)

let path_lock = Mutex.create ()

(* (domain, thread) -> innermost open frame: semicolon path + span seq. *)
let frames : (int * int, string * int) Hashtbl.t = Hashtbl.create 32

let thread_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))
let tid_of_key (d, th) = (d lsl 16) lor (th land 0xffff)

let current_frame k =
  Mutex.lock path_lock;
  let f = Hashtbl.find_opt frames k in
  Mutex.unlock path_lock;
  f

let set_frame k f =
  Mutex.lock path_lock;
  (match f with None -> Hashtbl.remove frames k | Some f -> Hashtbl.replace frames k f);
  Mutex.unlock path_lock

let join parent name = if parent = "" then name else parent ^ ";" ^ name

(* Parent resolution: an enclosing span on this thread wins; a root span
   parents onto the remote span carried by the installed trace context,
   which is how a backend's request span nests under the router's. *)
let parent_of frame =
  match frame with
  | Some (_, seq) -> Span seq
  | None -> (
    match Ctx.current_trace () with
    | Some { Ctx.parent_span = Some p; _ } -> Remote p
    | _ -> Root)

let current_trace_id () =
  match Ctx.current_trace () with Some tr -> Some tr.Ctx.trace_id | None -> None

let propagation_context () =
  match Ctx.current_trace () with
  | None -> None
  | Some tr -> (
    match current_frame (thread_key ()) with
    | Some (_, seq) -> Some { Ctx.trace_id = tr.Ctx.trace_id; parent_span = Some (span_hex seq) }
    | None -> Some tr)

let with_span ?(cat = "flow") ?(args = []) name f =
  match Atomic.get sink with
  | None -> f ()
  | Some t ->
    let k = thread_key () in
    let parent_frame = current_frame k in
    let parent_path = match parent_frame with Some (p, _) -> p | None -> "" in
    let path = join parent_path name in
    let seq = next_seq () in
    set_frame k (Some (path, seq));
    let ts = now_us () in
    let finish ok =
      let dur_us = now_us () -. ts in
      set_frame k parent_frame;
      push t
        {
          name;
          cat;
          path;
          cid = Ctx.current ();
          trace_id = current_trace_id ();
          seq;
          parent = parent_of parent_frame;
          ts_us = ts -. t.t0_us;
          dur_us;
          tid = tid_of_key k;
          ok;
          args;
        }
    in
    (match f () with
    | v ->
      finish true;
      v
    | exception exn ->
      finish false;
      raise exn)

let instant ?(cat = "event") ?(args = []) name =
  match Atomic.get sink with
  | None -> ()
  | Some t ->
    let k = thread_key () in
    let frame = current_frame k in
    let parent_path = match frame with Some (p, _) -> p | None -> "" in
    push t
      {
        name;
        cat;
        path = join parent_path name;
        cid = Ctx.current ();
        trace_id = current_trace_id ();
        seq = next_seq ();
        parent = parent_of frame;
        ts_us = now_us () -. t.t0_us;
        dur_us = 0.0;
        tid = tid_of_key k;
        ok = true;
        args;
      }

(* --- export --- *)

let to_chrome ?process_name t =
  let pid = Unix.getpid () in
  let metadata =
    match process_name with
    | None -> []
    | Some pname ->
      [
        Json.Assoc
          [
            ("name", Json.String "process_name");
            ("ph", Json.String "M");
            ("pid", Json.Int pid);
            ("tid", Json.Int 0);
            ("args", Json.Assoc [ ("name", Json.String pname) ]);
          ];
      ]
  in
  let event (s : span) =
    let link =
      (* trace linkage: only rendered for spans recorded under a trace
         context, so single-process traces stay as small as before. *)
      match s.trace_id with
      | None -> []
      | Some tr ->
        ("trace_id", Fields.Str tr)
        :: ("span_id", Fields.Str (span_hex s.seq))
        ::
        (match s.parent with
        | Root -> []
        | Span p -> [ ("parent_span", Fields.Str (span_hex p)) ]
        | Remote p -> [ ("parent_span", Fields.Str p); ("remote_parent", Fields.Bool true) ])
    in
    let args =
      (("path", Fields.Str s.path)
      :: (match s.cid with Some id -> [ ("cid", Fields.Str id) ] | None -> []))
      @ link
      @ (if s.ok then [] else [ ("error", Fields.Bool true) ])
      @ s.args
    in
    Json.Assoc
      [
        ("name", Json.String s.name);
        ("cat", Json.String s.cat);
        ("ph", Json.String "X");
        ("ts", Json.Float s.ts_us);
        ("dur", Json.Float s.dur_us);
        ("pid", Json.Int pid);
        ("tid", Json.Int s.tid);
        ("args", Fields.assoc args);
      ]
  in
  Json.Assoc
    [
      ("traceEvents", Json.List (metadata @ List.map event (spans t)));
      ("displayTimeUnit", Json.String "ms");
      (* absolute origin of the relative ts values, for multi-process merge *)
      ("t0_us", Json.Float t.t0_us);
      ("droppedSpans", Json.Int (dropped t));
    ]

let write_chrome_json ?process_name t ~path =
  let oc = open_out path in
  output_string oc (Json.to_string (to_chrome ?process_name t));
  output_char oc '\n';
  close_out oc

(* Satellite: the ring-buffer drop counter as a registry family, so a
   saturated ring is visible in `metrics`, not only in the export
   summary. *)
let registry_samples () =
  match Atomic.get sink with
  | None -> []
  | Some t ->
    [
      {
        Registry.name = "nbti_trace_dropped_spans_total";
        help = "Spans overwritten because the trace ring buffer was full.";
        labels = [];
        value = Registry.Counter (float_of_int (dropped t));
      };
    ]

(* --- flame summary --- *)

type agg = { mutable count : int; mutable total_us : float }

let flame_of_aggregates entries ~dropped:dropped_count =
  (* self = total minus the sum over direct children. *)
  let child_sum = Hashtbl.create 64 in
  List.iter
    (fun (path, a) ->
      match String.rindex_opt path ';' with
      | None -> ()
      | Some i ->
        let parent = String.sub path 0 i in
        let prev = match Hashtbl.find_opt child_sum parent with Some x -> x | None -> 0.0 in
        Hashtbl.replace child_sum parent (prev +. a.total_us))
    entries;
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "%-60s %8s %12s %12s\n" "span" "count" "total_ms" "self_ms");
  List.iter
    (fun (path, a) ->
      let children = match Hashtbl.find_opt child_sum path with Some x -> x | None -> 0.0 in
      let self_us = Float.max 0.0 (a.total_us -. children) in
      Buffer.add_string b
        (Printf.sprintf "%-60s %8d %12.3f %12.3f\n" path a.count (a.total_us /. 1e3)
           (self_us /. 1e3)))
    entries;
  if dropped_count > 0 then
    Buffer.add_string b (Printf.sprintf "(%d spans dropped by the ring buffer)\n" dropped_count);
  Buffer.contents b

let aggregate_paths pairs =
  let table : (string, agg) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (path, dur_us) ->
      match Hashtbl.find_opt table path with
      | Some a ->
        a.count <- a.count + 1;
        a.total_us <- a.total_us +. dur_us
      | None -> Hashtbl.add table path { count = 1; total_us = dur_us })
    pairs;
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])

let flame_of_paths pairs ~dropped = flame_of_aggregates (aggregate_paths pairs) ~dropped

let flame_summary t =
  flame_of_paths (List.map (fun s -> (s.path, s.dur_us)) (spans t)) ~dropped:(dropped t)
