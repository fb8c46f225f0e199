(* One `ifc serve` subprocess: spawn, readiness, /proc sampling, stop.

   Readiness is polled from here, every half millisecond, by attempting
   the connection the run will use — never through a client library's
   retry loop, whose sleep quantum would dominate a set-up time of a few
   milliseconds. *)

type t = { pid : int; socket : string }

(* Every child this process started (daemons, the replay) and has not
   yet reaped; killed at exit on any path so no run leaves one behind. *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 4

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  Hashtbl.remove live pid

let kill_all () =
  Hashtbl.iter
    (fun pid () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    (Hashtbl.copy live);
  Hashtbl.iter (fun pid () -> reap pid) (Hashtbl.copy live)

let () = at_exit kill_all

let spawn ~ifc ~socket ~cache_size ?store ?log ~stderr_file () =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let args =
    [ ifc; "serve"; "--socket"; socket; "--jobs"; "1"; "--shards"; "1";
      "--cache-size"; string_of_int cache_size; "--quiet" ]
    @ (match store with Some dir -> [ "--store"; dir ] | None -> [])
    @ match log with Some file -> [ "--log"; file ] | None -> []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err =
    Unix.openfile stderr_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull; Unix.close err)
      (fun () -> Unix.create_process ifc (Array.of_list args) devnull devnull err)
  in
  Hashtbl.replace live pid ();
  { pid; socket }

let alive t =
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> true
  | _ ->
    Hashtbl.remove live t.pid;
    false
  | exception Unix.Unix_error _ -> false

(* Connect, retrying every 0.5 ms until the socket accepts or [timeout]
   seconds pass. *)
let connect t ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX t.socket) with
    | () -> Ok fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
      ->
      Unix.close fd;
      if Unix.gettimeofday () > deadline then Error "daemon did not become ready"
      else if not (alive t) then Error "daemon exited before becoming ready"
      else begin
        Unix.sleepf 0.0005;
        attempt ()
      end
    | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error ("connect: " ^ Unix.error_message e)
  in
  attempt ()

(* SIGTERM drains the daemon; a daemon still running ten seconds later
   is killed. Either way it is reaped before this returns. *)
let stop t =
  if Hashtbl.mem live t.pid then begin
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 10. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.002;
        wait ()
      | 0, _ ->
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap t.pid
      | _ -> Hashtbl.remove live t.pid
      | exception Unix.Unix_error _ -> Hashtbl.remove live t.pid
    in
    wait ()
  end

(* ------------------------------------------------------------------ *)
(* /proc *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* /proc reports CPU times in USER_HZ ticks, fixed at 100 per second by
   the kernel's user-space ABI. *)
let clk_tck = 100.

(* utime + stime in clock ticks: fields 14 and 15 of /proc/<pid>/stat,
   counted after the parenthesised command name (which may hold
   spaces). *)
let cpu_ticks t =
  let s = read_file (Printf.sprintf "/proc/%d/stat" t.pid) in
  let rest =
    let i = String.rindex s ')' in
    String.sub s (i + 2) (String.length s - i - 2)
  in
  match String.split_on_char ' ' rest with
  | _state :: _ppid :: _pgrp :: _session :: _tty :: _tpgid :: _flags :: _minflt
    :: _cminflt :: _majflt :: _cmajflt :: utime :: stime :: _ ->
    int_of_string utime + int_of_string stime
  | _ -> failwith "unexpected /proc/<pid>/stat layout"

(* Peak resident set size (VmHWM), in kB. *)
let peak_rss_kb t =
  let status = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" Fun.id
