(* Seeded inputs for every workload.

   Everything a run feeds the compiler is a pure function of the
   workload, the [--seed] argument and a position in the input stream,
   so the same seed yields byte-identical inputs ({!describe} renders
   them for the self-test).  Sizes and factors are drawn stratified:
   each pass over a workload's strata draws one value inside every
   stratum, so the median of a run moves little from seed to seed while
   the individual inputs still differ. *)

module P = Rp_core.Pipeline
module R = Rp_workloads.Registry
module Vec = Rp_ir.Vec

type workload = Gen_compile | Gen_budget | Seed_exec | Serve_mixed

let workloads = [ Gen_compile; Gen_budget; Seed_exec; Serve_mixed ]

let workload_to_string = function
  | Gen_compile -> "gen-compile"
  | Gen_budget -> "gen-budget"
  | Seed_exec -> "seed-exec"
  | Serve_mixed -> "serve-mixed"

let workload_of_string s =
  List.find_opt (fun w -> workload_to_string w = s) workloads

(* Interpreter budget per run.  The largest draw of any workload
   executes well under a tenth of it (the self-test checks the seed
   programs at their largest factor), so the default budget of
   [rpromote promote] is kept. *)
let fuel = P.default_options.P.fuel

type program = {
  label : string;
  source : string;
  options : P.options;
  size : int;  (** the generator's size parameter; 0 for seed programs *)
}

(* A private random stream per (workload, seed, coordinates). *)
let rng w seed coords =
  Random.State.make
    (Array.of_list (Hashtbl.hash (workload_to_string w) :: seed :: coords))

(* Bit-reversal order of [0, 2^b): every prefix of a pass is spread
   evenly over the strata, so a run cut short mid-pass stays
   balanced. *)
let strata_order bits =
  let k = 1 lsl bits in
  Array.init k (fun i ->
      let r = ref 0 in
      for j = 0 to bits - 1 do
        if i land (1 lsl j) <> 0 then r := !r lor (1 lsl (bits - 1 - j))
      done;
      !r)

let strata_bits = 4
let order = strata_order strata_bits
let strata = Array.length order

(* ------------------------------------------------------------------ *)
(* gen-compile / gen-budget: generated programs of drawn size *)

let gen_range = function
  | Gen_compile -> (240, 480)
  | Gen_budget -> (120, 240)
  | Seed_exec | Serve_mixed -> invalid_arg "gen_range"

let gen_options = function
  | Gen_compile -> { P.default_options with P.fuel }
  | Gen_budget ->
      { P.default_options with P.fuel; regs = Some 8; spill_order = true }
  | Seed_exec | Serve_mixed -> invalid_arg "gen_options"

let gen_program w ~seed (i : int) : program =
  let lo, hi = gen_range w in
  let pass = i / strata and slot = i mod strata in
  let u = Random.State.float (rng w seed [ pass; slot ]) 1.0 in
  let width = float_of_int (hi - lo) /. float_of_int strata in
  let n =
    lo + int_of_float (Float.round ((float_of_int order.(slot) +. u) *. width))
  in
  let n = max lo (min hi n) in
  let g = R.generated n in
  { label = g.R.name; source = g.R.source; options = gen_options w; size = n }

(* ------------------------------------------------------------------ *)
(* seed-exec: the eleven registry programs at drawn trip counts *)

(* Each registry program's main-loop bound, as it appears in the
   source.  The benchmark rewrites only this immediate. *)
let main_loops =
  [
    ("go", ("round < ", 40));
    ("li", ("round < ", 60));
    ("ijpeg", ("round < ", 12));
    ("perl", ("round < ", 25));
    ("m88k", ("n < ", 6000));
    ("sc", ("round < ", 30));
    ("compr", ("n < ", 12000));
    ("vortex", ("n < ", 2500));
    ("blur", ("round < ", 200));
    ("dot", ("round < ", 150));
    ("lpc", ("round < ", 120));
  ]

(* the stencil/DSP family exists for scalar replacement *)
let scalrep_programs = [ "blur"; "dot"; "lpc" ]

let seed_options name =
  { P.default_options with P.fuel; scalrep = List.mem name scalrep_programs }

let replace_once s pat rep =
  let plen = String.length pat and n = String.length s in
  let rec find i =
    if i + plen > n then None
    else if String.sub s i plen = pat then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> failwith ("main-loop bound not found: " ^ pat)
  | Some i -> String.sub s 0 i ^ rep ^ String.sub s (i + plen) (n - i - plen)

let with_bound (w : R.workload) (bound : int) : string =
  let prefix, orig = List.assoc w.R.name main_loops in
  replace_once w.R.source
    (prefix ^ string_of_int orig)
    (prefix ^ string_of_int bound)

let registry = Array.of_list R.all

(* Trip-count factors are drawn log-uniformly from [0.8, 1.25], one
   per stratum: every program contributes one variant below, one
   around and one above its registry size. *)
let variants = 3
let factor_lo = 0.8
let factor_hi = 1.25

let seed_factor ~seed p v =
  let u = Random.State.float (rng Seed_exec seed [ p; v ]) 1.0 in
  exp
    (log factor_lo
    +. ((float_of_int v +. u) /. float_of_int variants *. log (factor_hi /. factor_lo)))

let seed_variant ~seed p v : program =
  let w = registry.(p) in
  let _, orig = List.assoc w.R.name main_loops in
  let bound =
    max 1 (int_of_float (Float.round (float_of_int orig *. seed_factor ~seed p v)))
  in
  {
    label = Printf.sprintf "%s@%d" w.R.name bound;
    source = with_bound w bound;
    options = seed_options w.R.name;
    size = 0;
  }

(* Every pass runs all programs x variants once, in a seeded order. *)
let seed_pass_order ~seed pass : (int * int) array =
  let a =
    Array.init (Array.length registry * variants) (fun k ->
        (k / variants, k mod variants))
  in
  let st = rng Seed_exec seed [ -1; pass ] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let seed_pass_len = Array.length registry * variants

(* ------------------------------------------------------------------ *)
(* The compile workloads as one indexed stream *)

(* A memoised stream: the i-th input of a run, built on first use. *)
let stream w ~seed : int -> program =
  match w with
  | Gen_compile | Gen_budget ->
      let memo = Hashtbl.create 64 in
      fun i ->
        (match Hashtbl.find_opt memo i with
        | Some p -> p
        | None ->
            let p = gen_program w ~seed i in
            Hashtbl.replace memo i p;
            p)
  | Seed_exec ->
      let progs =
        Array.init (Array.length registry) (fun p ->
            Array.init variants (fun v -> seed_variant ~seed p v))
      in
      let orders = Hashtbl.create 16 in
      fun i ->
        let pass = i / seed_pass_len in
        let ord =
          match Hashtbl.find_opt orders pass with
          | Some o -> o
          | None ->
              let o = seed_pass_order ~seed pass in
              Hashtbl.replace orders pass o;
              o
        in
        let p, v = ord.(i mod seed_pass_len) in
        progs.(p).(v)
  | Serve_mixed -> invalid_arg "Inputs.stream: serve-mixed is request-driven"

(* ------------------------------------------------------------------ *)
(* serve-mixed: a request sequence over a hot set plus cold uniques *)

type request = {
  rlabel : string;
  target : [ `Source of string | `Workload of string ];
  roptions : P.options;
  cold : bool;
}

(* The hot set: each registry program by name, with its own options. *)
let hot =
  Array.map
    (fun (w : R.workload) ->
      {
        rlabel = w.R.name;
        target = `Workload w.R.name;
        roptions = seed_options w.R.name;
        cold = false;
      })
    registry

(* One cold request per block of [block] requests, the rest warm. *)
let block = 5

(* Cold variants run the programs at a drawn fraction of their trip
   count under a drawn register budget (with or without spill-order
   gating) and scalar-replacement flag; no variant repeats within a
   run.  The smallest space, ijpeg's, holds over 400 variants. *)
let cold_regs = Array.init 15 (fun i -> if i = 0 then None else Some (i + 2))
let cold_factor_lo = 0.25
let cold_factor_hi = 0.75

type serve_seq = {
  seed : int;
  reqs : request Vec.t;
  seen : (string, unit) Hashtbl.t;
  mutable colds : int;
}

let serve_seq ~seed =
  { seed; reqs = Vec.create ~dummy:hot.(0); seen = Hashtbl.create 256; colds = 0 }

(* [k]-th draw of a balanced sequence over [0, period): each cycle of
   [period] draws is a fresh seeded permutation, so every value appears
   once per cycle. *)
let balanced ~seed ~tag ~period k =
  let perm = Array.init period Fun.id in
  let st = rng Serve_mixed seed [ tag; k / period ] in
  for i = period - 1 downto 1 do
    let r = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(r);
    perm.(r) <- t
  done;
  perm.(k mod period)

(* The j-th cold request: program, register budget and flags each cycle
   through all their values in seeded order, so a run's cold mix is the
   same whatever the seed; only the trip count is drawn freely. *)
let cold_request (s : serve_seq) : request =
  let j = s.colds in
  s.colds <- j + 1;
  let pick tag period = balanced ~seed:s.seed ~tag ~period j in
  let w = registry.(pick (-1) (Array.length registry)) in
  let regs = cold_regs.(pick (-4) (Array.length cold_regs)) in
  let flags = pick (-5) 4 in
  let spill_order = regs <> None && flags land 1 = 1 in
  let scalrep = flags land 2 = 2 in
  let _, orig = List.assoc w.R.name main_loops in
  let lo = max 1 (int_of_float (float_of_int orig *. cold_factor_lo)) in
  let hi = max lo (int_of_float (float_of_int orig *. cold_factor_hi)) in
  let st = rng Serve_mixed s.seed [ -2; j ] in
  let rec draw attempts =
    if attempts > 10_000 then failwith ("cold variants exhausted for " ^ w.R.name);
    let bound = lo + Random.State.int st (hi - lo + 1) in
    let key =
      Printf.sprintf "%s@%d/r%s%s/s%b" w.R.name bound
        (match regs with None -> "-" | Some k -> string_of_int k)
        (if spill_order then "o" else "")
        scalrep
    in
    if Hashtbl.mem s.seen key then draw (attempts + 1)
    else begin
      Hashtbl.replace s.seen key ();
      {
        rlabel = key;
        target = `Source (with_bound w bound);
        roptions = { P.default_options with P.fuel; regs; spill_order; scalrep };
        cold = true;
      }
    end
  in
  draw 0

let extend (s : serve_seq) =
  let b = Vec.length s.reqs / block in
  let st = rng Serve_mixed s.seed [ -3; b ] in
  let cold_at = Random.State.int st block in
  for k = 0 to block - 1 do
    Vec.push s.reqs
      (if k = cold_at then cold_request s
       else hot.(Random.State.int st (Array.length hot)))
  done

(* The i-th request of the run; not thread-safe, callers serialise. *)
let nth_request (s : serve_seq) (i : int) : request =
  while Vec.length s.reqs <= i do
    extend s
  done;
  Vec.get s.reqs i

(* ------------------------------------------------------------------ *)
(* Byte-level rendering, for the determinism self-test *)

let describe_options (o : P.options) =
  Printf.sprintf "fuel=%d regs=%s spill_order=%b scalrep=%b jobs=%d interp=%s"
    o.P.fuel
    (match o.P.regs with None -> "-" | Some k -> string_of_int k)
    o.P.spill_order o.P.scalrep o.P.jobs
    (P.interp_engine_to_string o.P.interp)

let describe_program (p : program) =
  Printf.sprintf "%s size=%d %s digest=%s" p.label p.size
    (describe_options p.options)
    (Digest.to_hex (Digest.string p.source))

let describe_request (r : request) =
  Printf.sprintf "%s cold=%b %s %s" r.rlabel r.cold
    (describe_options r.roptions)
    (match r.target with
    | `Workload n -> "workload=" ^ n
    | `Source s -> "digest=" ^ Digest.to_hex (Digest.string s))

(* The first [count] inputs of a workload under [seed], one per line. *)
let describe w ~seed ~count : string =
  let lines =
    match w with
    | Serve_mixed ->
        let s = serve_seq ~seed in
        List.init count (fun i -> describe_request (nth_request s i))
    | Gen_compile | Gen_budget | Seed_exec ->
        let nth = stream w ~seed in
        List.init count (fun i -> describe_program (nth i))
  in
  String.concat "\n" lines
