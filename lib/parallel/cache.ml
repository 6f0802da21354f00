(* Hash table + intrusive doubly-linked recency list: O(1) lookup,
   insert, touch and eviction. The list head is most recent. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable weight : int;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type event = Hit | Miss | Evict

type 'a t = {
  cap : int;
  max_bytes : int option;
  weigh : 'a -> int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable listener : (event -> string -> unit) option;
  lock : Mutex.t;
}

let default_weight _ = 1

let create ~capacity ?max_bytes ?(weight = default_weight) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  (match max_bytes with
  | Some b when b < 1 -> invalid_arg "Cache.create: max_bytes must be >= 1"
  | _ -> ());
  {
    cap = capacity;
    max_bytes;
    weigh = weight;
    table = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    listener = None;
    lock = Mutex.create ();
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Listeners fire while the cache lock is held, so they must not call
   back into the cache; a raising listener never breaks cache
   semantics. *)
let fire t event key =
  match t.listener with Some f -> ( try f event key with _ -> ()) | None -> ()

let on_event t f = with_lock t (fun () -> t.listener <- Some f)

let capacity t = t.cap
let length t = with_lock t (fun () -> Hashtbl.length t.table)
let bytes_used t = with_lock t (fun () -> t.bytes)

(* List surgery; callers hold the lock. *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
    unlink t n;
    push_front t n

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some n ->
        t.hits <- t.hits + 1;
        touch t n;
        fire t Hit key;
        Some n.value
      | None ->
        t.misses <- t.misses + 1;
        fire t Miss key;
        None)

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some n ->
    unlink t n;
    Hashtbl.remove t.table n.key;
    t.bytes <- t.bytes - n.weight;
    t.evictions <- t.evictions + 1;
    fire t Evict n.key

(* Evict until both bounds hold again. At least one entry is always
   kept, so a single value heavier than the whole byte budget is still
   cached (the budget is approximate, not a hard allocator limit). *)
let shrink_to_bounds t =
  while Hashtbl.length t.table > t.cap do
    evict_lru t
  done;
  match t.max_bytes with
  | None -> ()
  | Some budget ->
    while t.bytes > budget && Hashtbl.length t.table > 1 do
      evict_lru t
    done

let add t key value =
  with_lock t (fun () ->
      (match Hashtbl.find_opt t.table key with
      | Some n ->
        t.bytes <- t.bytes - n.weight;
        n.value <- value;
        n.weight <- t.weigh value;
        t.bytes <- t.bytes + n.weight;
        touch t n
      | None ->
        if Hashtbl.length t.table >= t.cap then evict_lru t;
        let w = t.weigh value in
        let n = { key; value; weight = w; prev = None; next = None } in
        Hashtbl.replace t.table key n;
        t.bytes <- t.bytes + w;
        push_front t n);
      shrink_to_bounds t)

let find_or_add t key compute =
  match find t key with
  | Some v -> (v, true)
  | None ->
    let v = compute () in
    add t key v;
    (v, false)

(* Pure snapshot in recency order (head = MRU): no counter updates, no
   recency churn — exporting a cache for warm handoff must not look
   like traffic. *)
let entries ?max t =
  with_lock t (fun () ->
      let cap = match max with Some m -> m | None -> max_int in
      let rec go acc n node =
        if n >= cap then List.rev acc
        else
          match node with
          | None -> List.rev acc
          | Some nd -> go ((nd.key, nd.value) :: acc) (n + 1) nd.next
      in
      go [] 0 t.head)

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.table;
      t.head <- None;
      t.tail <- None;
      t.bytes <- 0)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
  bytes_used : int;
  max_bytes : int option;
}

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        size = Hashtbl.length t.table;
        capacity = t.cap;
        bytes_used = t.bytes;
        max_bytes = t.max_bytes;
      })

let hit_rate s =
  let lookups = s.hits + s.misses in
  if lookups = 0 then 0.0 else float_of_int s.hits /. float_of_int lookups
