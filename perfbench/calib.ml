(* Reference speed of the machine during a run.

   The machines this benchmark runs on share their cores with other
   tenants, and a run can execute 20-50% slower than the one before it
   for reasons outside the program.  Each run therefore times a fixed,
   repository-independent computation (hashing, balanced-tree inserts,
   list allocation and sorting, the same mix of work the compiler
   does) next to its samples, and reports its timings scaled to the
   speed at which that computation takes [nominal_ms].  The raw
   figures are printed beside the scaled ones. *)

module IntMap = Map.Make (Int)

let work () =
  let h = Hashtbl.create 4096 in
  for i = 0 to 6_999 do
    Hashtbl.replace h ((i * 7919) land 0xffff) [ i; i + 1 ]
  done;
  let m = ref IntMap.empty in
  for i = 0 to 1_699 do
    m := IntMap.add ((i * 104_729) land 0xfffff) i !m
  done;
  let a = Array.init 7_000 (fun i -> (i * 2_654_435_761) land 0xffffff) in
  Array.sort compare a;
  Sys.opaque_identity (Hashtbl.length h + IntMap.cardinal !m + a.(0))

(* one timing of the reference computation on a collected heap, in ms *)
let reference_ms () =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  ignore (work ());
  (Unix.gettimeofday () -. t0) *. 1000.0

let nominal_ms = 3.5

(* Work (ms) between two reference timings: often enough to follow the
   machine's slow phases, rarely enough to cost about 5% of a run. *)
let interval_ms = 100.0

type t = { mutable refs : float list; mutable since_ms : float }

let create () = { refs = []; since_ms = 0.0 }

let sample (c : t) =
  c.refs <- reference_ms () :: c.refs;
  c.since_ms <- 0.0

(* Time the reference if [interval_ms] of work has been added since the
   last timing.  Call it between samples, once the previous sample's
   result is dead: a large live heap makes the reference's own
   collections slower and grows the heap it leaves behind. *)
let sample_if_due (c : t) = if c.refs = [] || c.since_ms >= interval_ms then sample c
let add_work (c : t) ~ms = c.since_ms <- c.since_ms +. ms

(* Multiply a time by [scale c] (divide a rate) to express it at the
   reference speed. *)
let scale (c : t) = nominal_ms /. Summary.median c.refs
let count (c : t) = List.length c.refs
