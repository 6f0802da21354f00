(** Gate-level combinational netlists.

    A netlist is a DAG of standard-cell instances over primary inputs. The
    node array is kept in topological order (every gate's fanin indices are
    smaller than its own index), which lets simulation, signal-probability
    propagation and timing analysis run as single forward passes. *)

type node =
  | Primary_input of { name : string }
  | Gate of { cell : Cell.Stdcell.t; fanin : int array; name : string }

type t = private {
  name : string;
  nodes : node array;  (** topologically ordered *)
  outputs : int array;  (** node ids of primary outputs *)
}

val create : name:string -> node array -> outputs:int array -> t
(** Validates and, if needed, topologically sorts the node array
    (rewriting all indices consistently).
    @raise Invalid_argument on arity mismatches, dangling references,
    combinational cycles, duplicate names, or empty outputs. *)

val n_nodes : t -> int
val n_gates : t -> int
val primary_inputs : t -> int array
(** Node ids of the primary inputs, in node order. *)

val n_primary_inputs : t -> int

val node_name : t -> int -> string

val fanout : t -> int array array
(** [fanout t .(i)] lists the gate ids that read node [i]. Primary outputs
    do not appear (see {!is_output}). *)

val fanout_pins : t -> (int * int) array array
(** Like {!fanout} but with the input-pin position: [(gate_id, pin)]. *)

val is_output : t -> int -> bool

val timing_problem : t -> string option
(** [Some reason] when no primary output is driven by a gate: every
    output is a primary input, so the fresh critical delay is 0 and a
    relative slowdown is undefined. Timing analyses refuse such a
    netlist up front. *)

val levels : t -> int array
(** Logic depth of each node: 0 for primary inputs,
    [1 + max (levels fanin)] for gates. *)

val depth : t -> int
(** Maximum gate level. 0 for gate-free netlists. *)

val digest : t -> string
(** Content digest (hex) of the netlist's canonical form: per-node cell
    identity and fanin indices plus the output list, in node order.
    Instance and netlist {e names} are excluded — they carry no analytical
    content — so structurally identical netlists share a digest. This is
    the cache key half contributed by the circuit in the analysis
    service's content-addressed result cache. *)

type stats = {
  name : string;
  n_pi : int;
  n_po : int;
  n_gates : int;
  depth : int;
  by_cell : (string * int) list;  (** instance count per cell name, sorted *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

(** Incremental construction with the topological invariant enforced by
    construction. *)
module Builder : sig
  type netlist := t
  type t

  val create : name:string -> t

  val input : t -> string -> int
  (** Declares a primary input and returns its node id. *)

  val gate : t -> ?name:string -> cell:Cell.Stdcell.t -> int array -> int
  (** Instantiates [cell] over existing node ids (length must equal the
      cell's input count) and returns the new node id. [name] defaults to
      ["<cell>_<id>"].
      @raise Invalid_argument on arity mismatch or unknown ids. *)

  val not_ : t -> int -> int
  val and2 : t -> int -> int -> int
  val or2 : t -> int -> int -> int
  val xor2 : t -> int -> int -> int
  val nand2 : t -> int -> int -> int
  val nor2 : t -> int -> int -> int

  val output : t -> int -> unit
  (** Marks a node as a primary output (idempotent). *)

  val finish : t -> netlist
end
