(* The serve-mixed load: an [rpromote serve] child on a Unix socket,
   driven in a closed loop by two connections, each waiting for its
   reply before sending the next request.  Requests come from
   {!Inputs.nth_request} in sequence order, so the requests a run sends
   are a prefix of the seeded sequence whatever the timing. *)

module P = Rp_core.Pipeline
module Proto = Rp_serve.Protocol
module Client = Rp_serve.Client
module J = Rp_obs.Json

let connections = 2

(* Fewer memory-cache entries than any run's cold requests: the cache is
   full in every run, so the daemon's peak RSS does not depend on how
   many requests the load got through.  The hot set stays resident (it
   is the most recently used). *)
let cache_entries = 256

type daemon = { pid : int; socket : string; dir : string }

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Start a daemon with a fresh cache directory under [dir] (a relative
   path, so the socket name stays short) and wait until it answers a
   ping. *)
let spawn ~rpromote ~dir : daemon =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket = Filename.concat dir "d.sock" in
  let cache = Filename.concat dir "cache" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close log;
        Unix.close null)
      (fun () ->
        Unix.create_process rpromote
          [|
            rpromote; "serve"; "--socket"; socket; "--cache-dir"; cache;
            "--jobs"; "2"; "--cache-entries"; string_of_int cache_entries;
          |]
          null log log)
  in
  let d = { pid; socket; dir } in
  let t_end = Unix.gettimeofday () +. 30.0 in
  let rec wait () =
    match Client.connect ~path:socket with
    | c ->
        let ok = try Client.ping c with _ -> false in
        Client.close c;
        if not ok then failwith "daemon did not answer ping"
    | exception Unix.Unix_error _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "daemon exited during start-up");
        if Unix.gettimeofday () > t_end then failwith "daemon start-up timed out";
        Unix.sleepf 0.005;
        wait ()
  in
  wait ();
  d

let peak_rss_mb (d : daemon) = Proc.vm_hwm_mb (Printf.sprintf "/proc/%d/status" d.pid)

(* Ask the daemon to drain and wait for it; kill it if it does not go. *)
let stop (d : daemon) =
  (try
     let c = Client.connect ~path:d.socket in
     Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
         ignore (Client.shutdown c))
   with _ -> ());
  let t_end = Unix.gettimeofday () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if Unix.gettimeofday () > t_end then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
        end
        else begin
          Unix.sleepf 0.01;
          reap ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  rm_rf d.dir

let spec_of (r : Inputs.request) : Proto.compile =
  {
    Proto.target = r.Inputs.target;
    options = r.Inputs.roptions;
    deterministic = true;
    deadline_s = None;
  }

(* Fill the daemon's caches with the hot set, as a user's warm daemon
   would have them. *)
let prime (d : daemon) =
  let c = Client.connect ~path:d.socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Array.iter
    (fun r ->
      match Client.compile c (spec_of r) with
      | Proto.Report _ -> ()
      | _ -> failwith ("priming failed on " ^ r.Inputs.rlabel))
    Inputs.hot

type outcome = Served of { cached : bool; digest : Digest.t } | Failed of string

type sample = { index : int; ms : float; outcome : outcome }

(* Drive [d] for [seconds] of wall clock.  A worker that fails stops
   the other; its exception is re-raised once both have ended. *)
let drive (d : daemon) (seq : Inputs.serve_seq) ~seconds : sample list * float =
  let m = Mutex.create () in
  let next = ref 0 in
  let samples = ref [] in
  let error = ref None in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. seconds in
  let take () =
    Mutex.protect m (fun () ->
        if Option.is_some !error || Unix.gettimeofday () >= deadline then None
        else begin
          let i = !next in
          incr next;
          Some (i, Inputs.nth_request seq i)
        end)
  in
  let rec loop c =
    match take () with
    | None -> ()
    | Some (i, r) ->
        let spec = spec_of r in
        let ts = Unix.gettimeofday () in
        let resp = Client.compile c spec in
        let ms = (Unix.gettimeofday () -. ts) *. 1000.0 in
        let outcome =
          match resp with
          | Proto.Report { cached; report } ->
              Served { cached; digest = Digest.string report }
          | Proto.Error { kind; message } ->
              Failed (Proto.error_kind_to_string kind ^ ": " ^ message)
          | _ -> Failed "unexpected response"
        in
        Mutex.protect m (fun () -> samples := { index = i; ms; outcome } :: !samples);
        loop c
  in
  let worker () =
    try
      let c = Client.connect ~path:d.socket in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> loop c)
    with e ->
      Mutex.protect m (fun () -> if Option.is_none !error then error := Some e)
  in
  let threads = List.init connections (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  Option.iter raise !error;
  (List.rev !samples, elapsed)

(* The daemon's own counters, from its stats document. *)
type counters = { store_writes : int; store_hits : int; dedup_joins : int }

let counters (d : daemon) : counters =
  let c = Client.connect ~path:d.socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let doc = Client.stats c in
  let rec path j = function
    | [] -> Some j
    | k :: ks -> Option.bind (J.member j k) (fun j -> path j ks)
  in
  let int_at p = match path doc p with Some (J.Int n) -> n | _ -> 0 in
  {
    store_writes = int_at [ "serve"; "cache"; "store"; "writes" ];
    store_hits = int_at [ "serve"; "cache"; "store_hits" ];
    dedup_joins = int_at [ "serve"; "responses"; "dedup_joins" ];
  }

(* The oracle for one request: the report bytes a one-shot
   [rpromote promote --deterministic --json -] would print, with the
   direct pipeline's wall clock. *)
let direct (r : Inputs.request) : P.report * Digest.t * float =
  let label, source =
    match r.Inputs.target with
    | `Workload name -> (
        match Rp_workloads.Registry.find name with
        | Some w -> (name, w.Rp_workloads.Registry.source)
        | None -> failwith ("unknown workload " ^ name))
    | `Source s -> ("request", s)
  in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let rep, s =
    P.run_fresh_json ~label ~deterministic:true
      ~options:{ r.Inputs.roptions with P.jobs = 1 }
      source
  in
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  (rep, Digest.string s, ms)
