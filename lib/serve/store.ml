(* Persistent content-addressed tier under the in-memory LRU: one file
   per cached report, named <hex key>.rpc inside a cache directory.
   Writes go to a unique <key>.tmp.<n> first and are renamed into
   place, so a crash never leaves a torn value; opening a directory
   sweeps stale temporaries and rebuilds the index (sizes plus a
   recency order from mtimes).  Eviction unlinks least-recently-used
   files until the byte bound holds.  All operations share one mutex;
   reads and writes happen under it, which is acceptable because
   values are single reports (tens of KiB). *)

module J = Rp_obs.Json

let suffix = ".rpc"

(* per-entry cost: value bytes + filename (key) bytes + an estimate of
   inode/dirent overhead — the same "charge the key too" honesty rule
   as the in-memory cache *)
let overhead = 256
let cost ~key ~size = size + String.length key + String.length suffix + overhead

type node = {
  nkey : string;
  size : int;  (* file payload bytes *)
  mutable prev : node option;  (* towards MRU *)
  mutable next : node option;  (* towards LRU *)
}

type t = {
  m : Mutex.t;
  dir : string;
  tbl : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable bytes : int;
  max_bytes : int;
  mutable tmp_seq : int;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable evictions : int;
  mutable errors : int;
  mutable swept : int;  (* stale temporaries removed at open *)
}

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let locked s f =
  Mutex.lock s.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.m) f

let unlink_node s n =
  (match n.prev with Some p -> p.next <- n.next | None -> s.head <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> s.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front s n =
  n.prev <- None;
  n.next <- s.head;
  (match s.head with Some h -> h.prev <- Some n | None -> s.tail <- Some n);
  s.head <- Some n

let path_of s key = Filename.concat s.dir (key ^ suffix)

let drop s n =
  unlink_node s n;
  Hashtbl.remove s.tbl n.nkey;
  s.bytes <- s.bytes - cost ~key:n.nkey ~size:n.size

let evict_to_bound s =
  while s.bytes > s.max_bytes && s.tail <> None do
    match s.tail with
    | Some n ->
        (try Sys.remove (path_of s n.nkey) with Sys_error _ -> ());
        drop s n;
        s.evictions <- s.evictions + 1
    | None -> ()
  done

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* a key is a hex digest; refuse anything that could escape the dir *)
let valid_key k =
  k <> ""
  && String.for_all
       (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
       k

let read_file path =
  let ic = In_channel.open_bin path in
  Fun.protect ~finally:(fun () -> In_channel.close ic) (fun () ->
      In_channel.input_all ic)

let open_dir ?(max_bytes = 256 * 1024 * 1024) dir =
  mkdir_p dir;
  let s =
    {
      m = Mutex.create ();
      dir;
      tbl = Hashtbl.create 64;
      head = None;
      tail = None;
      bytes = 0;
      max_bytes = max max_bytes 0;
      tmp_seq = 0;
      hits = 0;
      misses = 0;
      writes = 0;
      evictions = 0;
      errors = 0;
      swept = 0;
    }
  in
  (* crash-safe sweep: stale temporaries are garbage from an
     interrupted write; entries rebuild from surviving .rpc files,
     oldest mtime first so recency order matches the previous life *)
  let swept = ref 0 in
  let entries = ref [] in
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      if Filename.check_suffix name suffix then begin
        let key = Filename.chop_suffix name suffix in
        if valid_key key then
          match Unix.stat path with
          | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
              entries := (key, st_size, st_mtime) :: !entries
          | _ | (exception Unix.Unix_error _) -> ()
      end
      else if
        (* stale temporaries (<key>.tmp.<pid>.<n>) from interrupted
           writes of any previous life of this directory *)
        contains_sub name ".tmp."
      then begin
        (try Sys.remove path with Sys_error _ -> ());
        incr swept
      end)
    (try Sys.readdir dir with Sys_error _ -> [||]);
  let sorted =
    List.sort (fun (_, _, a) (_, _, b) -> compare a b) !entries
  in
  List.iter
    (fun (key, size, _) ->
      let n = { nkey = key; size; prev = None; next = None } in
      Hashtbl.replace s.tbl key n;
      push_front s n;
      s.bytes <- s.bytes + cost ~key ~size)
    sorted;
  s.swept <- !swept;
  Mutex.lock s.m;
  evict_to_bound s;
  Mutex.unlock s.m;
  s

let dir s = s.dir

let find s key =
  locked s @@ fun () ->
  match Hashtbl.find_opt s.tbl key with
  | None ->
      s.misses <- s.misses + 1;
      None
  | Some n -> (
      match read_file (path_of s key) with
      | value when String.length value = n.size ->
          s.hits <- s.hits + 1;
          unlink_node s n;
          push_front s n;
          Some value
      | _ | (exception Sys_error _) ->
          (* disappeared or torn underneath us: drop the index entry *)
          drop s n;
          s.errors <- s.errors + 1;
          s.misses <- s.misses + 1;
          None)

let add s ~key value =
  locked s @@ fun () ->
  if valid_key key && cost ~key ~size:(String.length value) <= s.max_bytes
  then
    match Hashtbl.find_opt s.tbl key with
    | Some n ->
        (* same key, same content by construction: refresh recency only *)
        unlink_node s n;
        push_front s n
    | None -> (
        s.tmp_seq <- s.tmp_seq + 1;
        let tmp =
          Filename.concat s.dir
            (Printf.sprintf "%s.tmp.%d.%d" key (Unix.getpid ()) s.tmp_seq)
        in
        match
          let oc = Out_channel.open_bin tmp in
          (* the flush happens at [close]: it must fail here, where the
             handler below sees it, and a failed flush is never renamed *)
          (try
             Out_channel.output_string oc value;
             Out_channel.close oc
           with e ->
             Out_channel.close_noerr oc;
             raise e);
          Unix.rename tmp (path_of s key)
        with
        | () ->
            let size = String.length value in
            let n = { nkey = key; size; prev = None; next = None } in
            Hashtbl.replace s.tbl key n;
            push_front s n;
            s.bytes <- s.bytes + cost ~key ~size;
            s.writes <- s.writes + 1;
            evict_to_bound s
        | exception (Sys_error _ | Unix.Unix_error _) ->
            (try Sys.remove tmp with Sys_error _ -> ());
            s.errors <- s.errors + 1)

let keys_mru s =
  locked s @@ fun () ->
  let rec walk acc = function
    | None -> List.rev acc
    | Some n -> walk (n.nkey :: acc) n.next
  in
  walk [] s.head

type stats = {
  entries : int;
  bytes : int;
  max_bytes : int;
  hits : int;
  misses : int;
  writes : int;
  evictions : int;
  errors : int;
  swept : int;
}

let stats s =
  locked s @@ fun () ->
  {
    entries = Hashtbl.length s.tbl;
    bytes = s.bytes;
    max_bytes = s.max_bytes;
    hits = s.hits;
    misses = s.misses;
    writes = s.writes;
    evictions = s.evictions;
    errors = s.errors;
    swept = s.swept;
  }

let stats_json s =
  let st = stats s in
  J.Obj
    [
      ("dir", J.Str s.dir);
      ("entries", J.Int st.entries);
      ("bytes", J.Int st.bytes);
      ("max_bytes", J.Int st.max_bytes);
      ("hits", J.Int st.hits);
      ("misses", J.Int st.misses);
      ("writes", J.Int st.writes);
      ("evictions", J.Int st.evictions);
      ("errors", J.Int st.errors);
      ("swept", J.Int st.swept);
    ]
