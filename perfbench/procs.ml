(* Child processes (the real cec_tool daemons), their requests, their
   memory, and their reaping.  Every child is registered on spawn and
   reaped on success, on failure and on the watchdog path. *)

let children : int list ref = ref []
let now = Unix.gettimeofday

let spawn ~log exe args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () -> Unix.create_process exe (Array.of_list (exe :: args)) null out out)
  in
  children := pid :: !children;
  pid

(* Wait up to [grace] seconds for [pid] to exit, then SIGKILL it; in
   every case the child is waited for. *)
let reap ?(grace = 10.) pid =
  let deadline = now () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  children := List.filter (( <> ) pid) !children

let kill_all () =
  List.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) !children;
  List.iter (reap ~grace:3.) !children

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false)

let tcp port = Service.Addr.Tcp ("127.0.0.1", port)

(* One request, one attempt: refusals are failures, never retried.
   The deadline keeps a wedged daemon from hanging the run. *)
let request ?(timeout = 120.) addr line =
  match Service.Client.attempt ~deadline:(now () +. timeout) addr line with
  | Ok reply -> Ok reply
  | Error (_, msg) -> Error msg

let wait_ready ?(timeout = 30.) addr =
  let deadline = now () +. timeout in
  let rec poll () =
    match request ~timeout:2. addr "ping" with
    | Ok _ -> ()
    | Error msg ->
      if now () > deadline then failwith ("daemon never became ready: " ^ msg)
      else begin
        Unix.sleepf 0.002;
        poll ()
      end
  in
  poll ()

(* Ask a daemon to drain and exit, then reap it. *)
let shutdown addr pid =
  ignore (request ~timeout:10. addr "shutdown");
  reap pid

(* A memory field of /proc/PID/status, in MB. *)
let status_mb field pid =
  match Util.read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0.
  | status ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ f; v ] when f = field -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> (
            match float_of_string_opt kb with Some k -> k /. 1024. | None -> acc)
          | [] -> acc)
        | _ -> acc)
      0. (String.split_on_char '\n' status)

(* Peak resident memory of a process, in MB: its high-water mark,
   read at the end of the measured window, before it exits. *)
let hwm_mb = status_mb "VmHWM"

let field = Service.Protocol.field
