(** Plumbing for newline-delimited-JSON sockets: endpoint addressing and
    the bounded request-line reader. {!Frontend} serves both roles
    through it, one request per line over a Unix-domain or TCP socket. *)

type endpoint = Unix_socket of string | Tcp of string * int

val endpoint_of_string : string -> (endpoint, string) result
(** ["unix:/path/to.sock"] or ["tcp:HOST:PORT"]; a bare path with no
    scheme is a Unix socket. *)

val endpoint_to_string : endpoint -> string
(** Canonical spelling, re-parsable by {!endpoint_of_string}; the fleet
    uses it as the backend's stable ring identity. *)

val sockaddr_of_endpoint : endpoint -> Unix.socket_domain * Unix.sockaddr
(** Resolves a TCP host via [gethostbyname], falling back to a literal
    address. @raise Failure on an unresolvable host. *)

(** Bounded request-line reader: a line longer than [max_bytes] is
    drained (framing stays intact) and reported as [Oversized], never
    buffered whole; a line cut off by EOF is returned as-is so its JSON
    parse fails with a structured error. *)
type read_line = Line of string | Oversized | Eof

type reader
(** One connection's reader: a fixed chunk refilled with [input] and
    scanned for ['\n']. Bytes after a line stay in the chunk for the
    next call, so pipelined requests are read in order. *)

val chunk_bytes : int
(** Size of the chunk one refill reads at most (64 KiB). *)

val reader : in_channel -> reader
(** A reader over a connection's input channel; it must be the only
    consumer of that channel. *)

val read_request_line : reader -> max_bytes:int -> read_line
(** The next line without its ['\n'] (a ['\r'] before it is kept). *)
