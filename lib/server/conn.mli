(** Socket plumbing shared by the daemon and its clients: endpoint
    addressing, a bounded newline-delimited reader with a blocking half
    for clients and a nonblocking half for the daemon's event loops, and
    a line writer. [EINTR] (signal delivery) never surfaces. *)

type endpoint = Unix_socket of string | Tcp of string * int
(** Where a server listens or a client connects. [Tcp (host, 0)] asks
    the kernel for an ephemeral port (see {!Server.port}). *)

val pp_endpoint : Format.formatter -> endpoint -> unit
(** ["unix:PATH"] or ["tcp:HOST:PORT"]. *)

val tcp_of_string : string -> (endpoint, string) result
(** Parses ["HOST:PORT"]; an empty host means ["127.0.0.1"]. *)

val sockaddr_of_endpoint : endpoint -> (Unix.sockaddr, string) result
(** Resolves the host by literal address first, then by name. *)

(** {1 Reading} *)

type item = [ `Line of string | `Oversized ]
(** One parsed unit of input: a complete line (newline stripped, CRLF
    tolerated), or the tombstone of a line that outgrew the reader's
    byte limit and was discarded — the connection itself survives. *)

type reader

val reader : ?max_bytes:int -> Unix.file_descr -> reader
(** [max_bytes] caps a single line (default unlimited — clients trust
    their server; servers must not trust their clients). *)

val next_line : reader -> [ `Line of string | `Oversized | `Eof ]
(** Blocks until a full line is available or the peer closes. A plain
    blocking [read], with no [select], so it works on descriptors at or
    above {!Limits.fd_setsize}. *)

val feed_fd : reader -> [ `Read | `Eof | `Blocked ]
(** Nonblocking half of the reader, for event loops: one [read] attempt
    on the fd (which must be in nonblocking mode), feeding any bytes to
    the line splitter. [`Read] means progress was made and more may be
    pending; [`Blocked] means the socket has nothing right now; [`Eof]
    is sticky (peer closed or errored). Buffered items survive [`Eof] —
    drain them with {!pop_item}. *)

val pop_item : reader -> item option
(** Takes the next buffered item without touching the socket. *)

(** {1 Writing} *)

val write_line : Unix.file_descr -> string -> bool
(** Writes [line ^ "\n"] fully; [false] if the peer is gone ([EPIPE]
    and friends), which callers treat as end-of-connection. *)
