(* Unit tests of the benchmark's summary helper and its seeded inputs. *)

open Rp_perfbench
module P = Rp_core.Pipeline
module R = Rp_workloads.Registry

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let test_summary () =
  let xs = List.init 40 (fun i -> float_of_int (40 - i)) in
  let s = Summary.summarise xs in
  check "n" (s.Summary.n = 40);
  check "median of 1..40" (close s.Summary.median 20.5);
  (* rank 30 of 40 has exactly ten samples above it *)
  check "tail value" (close s.Summary.tail 30.0);
  check "tail percentile" (close s.Summary.tail_pct 75.0);
  check "tail beyond" (s.Summary.beyond = 10);
  let odd = Summary.summarise [ 3.0; 1.0; 2.0 ] in
  check "odd median" (close odd.Summary.median 2.0);
  check "few samples: tail is the maximum"
    (close odd.Summary.tail 3.0 && odd.Summary.beyond = 0
    && close odd.Summary.tail_pct 100.0);
  let eleven = Summary.summarise (List.init 11 float_of_int) in
  check "eleven samples: tail is the minimum"
    (close eleven.Summary.tail 0.0 && eleven.Summary.beyond = 10);
  check "geomean" (close (Summary.geomean [ 1.0; 4.0; 16.0 ]) 4.0);
  let pts = List.map (fun x -> (x, 3.0 *. (x ** 1.5))) [ 2.0; 5.0; 7.0; 40.0 ] in
  check "log-log slope of a power law" (close (Summary.loglog_slope pts) 1.5)

let test_inputs () =
  List.iter
    (fun w ->
      let name = Inputs.workload_to_string w in
      let count = match w with Inputs.Serve_mixed -> 200 | _ -> 40 in
      let a = Inputs.describe w ~seed:7 ~count in
      let b = Inputs.describe w ~seed:7 ~count in
      let c = Inputs.describe w ~seed:8 ~count in
      check (name ^ ": same seed, same bytes") (String.equal a b);
      check (name ^ ": another seed, other inputs") (not (String.equal a c)))
    Inputs.workloads;
  (* every drawn generator size stays in range *)
  List.iter
    (fun w ->
      let lo, hi = Inputs.gen_range w in
      let nth = Inputs.stream w ~seed:3 in
      for i = 0 to 63 do
        let p = nth i in
        check "gen size in range" (p.Inputs.size >= lo && p.Inputs.size <= hi)
      done)
    [ Inputs.Gen_compile; Inputs.Gen_budget ];
  (* cold requests are never repeated *)
  let s = Inputs.serve_seq ~seed:5 in
  let colds =
    List.filter_map
      (fun i ->
        let r = Inputs.nth_request s i in
        if r.Inputs.cold then Some r.Inputs.rlabel else None)
      (List.init 3000 Fun.id)
  in
  check "cold share" (List.length colds = 3000 / Inputs.block);
  check "cold requests unique"
    (List.length (List.sort_uniq String.compare colds) = List.length colds)

(* The fuel covers the largest draw of every workload tenfold (the
   serve-mixed cold variants run below the seed programs' trip counts). *)
let test_fuel () =
  let fits label options source =
    let r = P.run ~options source in
    let instrs = r.P.dynamic_before.Rp_interp.Interp.instrs in
    check (label ^ ": largest draw fits the fuel") (instrs * 10 <= Inputs.fuel)
  in
  Array.iter
    (fun (w : R.workload) ->
      let _, orig = List.assoc w.R.name Inputs.main_loops in
      let bound =
        int_of_float (Float.ceil (float_of_int orig *. Inputs.factor_hi))
      in
      fits w.R.name (Inputs.seed_options w.R.name) (Inputs.with_bound w bound))
    Inputs.registry;
  List.iter
    (fun w ->
      let _, hi = Inputs.gen_range w in
      fits (Inputs.workload_to_string w) (Inputs.gen_options w)
        (R.generated hi).R.source)
    [ Inputs.Gen_compile; Inputs.Gen_budget ]

let () =
  test_summary ();
  test_inputs ();
  test_fuel ();
  if !failures > 0 then exit 1
