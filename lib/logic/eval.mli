(** Single-vector logic simulation over boxed netlists. The 64-way
    bit-parallel simulator that Monte-Carlo signal probability estimation
    runs on is {!Compiled.Arena.eval_packed}. *)

val eval : Circuit.Netlist.t -> inputs:bool array -> bool array
(** Values of every node, indexed by node id. [inputs] are the primary
    input values in {!Circuit.Netlist.primary_inputs} order. *)

val eval_outputs : Circuit.Netlist.t -> inputs:bool array -> bool array
(** Primary output values in [outputs] order. *)

val input_vector_of_int : Circuit.Netlist.t -> int -> bool array
(** Little-endian expansion of an integer into a primary-input vector —
    convenient for exhaustive sweeps over small circuits. *)
