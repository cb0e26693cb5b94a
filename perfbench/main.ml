(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--rpromote PATH]

   With [--trace 0] it measures the end-to-end metrics of one workload
   through the public entry points only ([Pipeline.run] with the
   options [rpromote promote] uses by default, or the daemon through
   [Rp_serve.Client]) with tracing off.  With [--trace 1] it measures
   the per-layer breakdown instead (see [Layers]).  Every output is
   checked outside the timed region; the last line of standard output
   is one JSON object with the verdict and the metrics.  LAYERS.md
   maps each per-layer metric to the end-to-end metric it should move. *)

open Rp_perfbench
module P = Rp_core.Pipeline
module Interp = Rp_interp.Interp

let now = Unix.gettimeofday

(* Raised by the SIGTERM/SIGINT handler.  [attempt], which turns a
   program's exception into a counted failure, lets it through, so an
   interrupted run still stops its daemon and removes its files. *)
exception Interrupted

let attempt f =
  match f () with
  | v -> Ok v
  | exception Interrupted -> raise Interrupted
  | exception e -> Error e

(* ------------------------------------------------------------------ *)
(* Reporting *)

type metric = { name : string; unit_ : string; value : float; note : string }

let metric ?(note = "") name unit_ value = { name; unit_; value; note }

(* The end-to-end figures of one run, raw.  [e2e_metrics] reports the
   times measured in this process scaled to the reference speed
   ({!Calib}), its rates inversely, with each raw figure beside it.  The
   daemon's latencies and rates stay raw: no reference runs during the
   load. *)
type e2e = {
  in_process : bool;  (** requests are served by this process *)
  setup : float list;  (** seconds per set-up *)
  pipeline : float list;  (** ms per program *)
  programs_per_s : float;
  programs_note : string;
  requests : float list;  (** ms per request *)
  requests_per_s : float;
  requests_note : string;
  ratios : float list;  (** dyn_mem_ratio per distinct input *)
  peak_rss_mb : float;
  rss_note : string;
}

let e2e_metrics (calib : Calib.t) (e : e2e) : metric list =
  let k = Calib.scale calib in
  Printf.printf "reference speed: median %.4f ms over %d timings, scale %.4f\n"
    (Calib.nominal_ms /. k) (Calib.count calib) k;
  let time ?(k = k) name unit_ raw note =
    metric name unit_ (raw *. k) ~note:(Printf.sprintf "%s; raw %.4f" note raw)
  in
  let rate ?(k = k) name raw note =
    metric name "1/s" (raw /. k) ~note:(Printf.sprintf "%s; raw %.4f" note raw)
  in
  let kr = if e.in_process then k else 1.0 in
  let timing ?(k = k) prefix xs =
    let s = Summary.summarise xs in
    [
      time ~k (prefix ^ "_p50") "ms" s.Summary.median
        (Printf.sprintf "median, n=%d" s.Summary.n);
      time ~k (prefix ^ "_tail") "ms" s.Summary.tail
        (Printf.sprintf "p%.1f, n=%d, %d beyond" s.Summary.tail_pct s.Summary.n
           s.Summary.beyond);
    ]
  in
  [
    time "setup_s" "s" (Summary.median e.setup)
      (Printf.sprintf "median of %d" (List.length e.setup));
  ]
  @ timing "pipeline_ms" e.pipeline
  @ [ rate ~k:kr "programs_per_s" e.programs_per_s e.programs_note ]
  @ timing ~k:kr "request_ms" e.requests
  @ [
      rate ~k:kr "requests_per_s" e.requests_per_s e.requests_note;
      metric "dyn_mem_ratio" "ratio" (Summary.geomean e.ratios)
        ~note:(Printf.sprintf "geomean over %d distinct inputs" (List.length e.ratios));
      metric "peak_rss_mb" "MB" e.peak_rss_mb ~note:e.rss_note;
    ]

let emit ~correct ~attempted ~failed (ms : metric list) =
  List.iter
    (fun m ->
      Printf.printf "%-28s %16.4f %-8s %s\n" m.name m.value m.unit_ m.note)
    ms;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           if not (Float.is_finite m.value) then
             failwith ("metric " ^ m.name ^ " is not a finite number");
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value
             m.unit_)
         ms)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* ------------------------------------------------------------------ *)
(* Output checks *)

type tally = { mutable attempted : int; mutable failed : int }

let fail (t : tally) what =
  t.failed <- t.failed + 1;
  Printf.eprintf "perfbench: FAILED %s\n%!" what

(* The independent oracle: the tree walker on the unpromoted frontend
   output, once per distinct input. *)
let oracle_memo : (string, (int list * int, string) result) Hashtbl.t =
  Hashtbl.create 64

let oracle (p : Inputs.program) =
  let key = Inputs.describe_program p in
  match Hashtbl.find_opt oracle_memo key with
  | Some r -> r
  | None ->
      let r =
        attempt (fun () ->
            let prog, _ = P.frontend ~options:p.Inputs.options p.Inputs.source in
            let res = Interp.run ~fuel:p.Inputs.options.P.fuel prog in
            (res.Interp.output, res.Interp.exit_value))
        |> Result.map_error Printexc.to_string
      in
      Hashtbl.replace oracle_memo key r;
      r

let mem_ops (c : Interp.counters) =
  c.Interp.loads + c.Interp.stores + c.Interp.aliased_loads
  + c.Interp.aliased_stores

let dyn_ratio (r : P.report) =
  float_of_int (mem_ops r.P.dynamic_after)
  /. float_of_int (mem_ops r.P.dynamic_before)

let check_report tally (p : Inputs.program) (r : P.report) =
  match oracle p with
  | Error e -> fail tally (p.Inputs.label ^ ": oracle failed: " ^ e)
  | Ok (output, exit_value) ->
      if not r.P.behaviour_ok then
        fail tally (p.Inputs.label ^ ": behaviour changed by promotion")
      else if
        r.P.final.Interp.output <> output
        || r.P.final.Interp.exit_value <> exit_value
      then fail tally (p.Inputs.label ^ ": output differs from the tree walker")

(* ------------------------------------------------------------------ *)
(* Per-layer metrics *)

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* [pairs]: per program, the untraced [Pipeline.run] wall clock and
   the traced replay.  Layer times and counts are means per program. *)
let layer_metrics (pairs : (float * Layers.sample) list) : metric list =
  let samples = List.map snd pairs in
  let n = List.length samples in
  let get_time name (s : Layers.sample) = List.assoc name s.Layers.times in
  let get_count name (s : Layers.sample) =
    List.find_map
      (fun (k, _, v) -> if k = name then Some v else None)
      s.Layers.counts
    |> Option.get
  in
  let note = Printf.sprintf "mean per program, n=%d" n in
  let times =
    List.map
      (fun l -> metric l "ms" (mean (List.map (get_time l) samples)) ~note)
      Layers.layer_names
  in
  let counts =
    List.map
      (fun (k, u, _) -> metric k u (mean (List.map (get_count k) samples)) ~note)
      (List.hd samples).Layers.counts
  in
  let sum f = List.fold_left (fun a s -> a +. f s) 0.0 samples in
  let exec_ms = sum (get_time "interp.exec_ms") in
  let instrs = sum (get_count "interp.instrs") in
  let traced = List.map (fun (s : Layers.sample) -> s.Layers.total_ms) samples in
  let untraced = List.map fst pairs in
  let attributed =
    sum (fun s -> List.fold_left (fun a (_, ms) -> a +. ms) 0.0 s.Layers.times)
  in
  let total = sum (fun s -> s.Layers.total_ms) in
  let sizes =
    List.map
      (fun s -> (get_count "minic.ir_instrs" s, get_time "promote.ms" s))
      samples
  in
  times @ counts
  @ [
      metric "interp.minstr_s" "Minstr/s"
        (if exec_ms > 0.0 then instrs /. exec_ms /. 1000.0 else 0.0);
      metric "promote.size_exponent" "slope"
        (Summary.loglog_slope sizes)
        ~note:"log-log slope of promote.ms against IR instructions";
      metric "trace.overhead_pct" "%"
        (((Summary.median traced /. Summary.median untraced) -. 1.0) *. 100.0)
        ~note:"traced vs untraced pipeline_ms_p50";
      metric "layers.unattributed_pct" "%"
        ((total -. attributed) /. total *. 100.0)
        ~note:"traced wall time outside the named layers";
    ]

let serve_layer_names =
  [
    ("serve.hit_ms_p50", "ms");
    ("serve.cold_ms_p50", "ms");
    ("serve.cold_ms_tail", "ms");
    ("serve.hit_ratio", "ratio");
    ("serve.store_writes", "count");
    ("serve.store_hits", "count");
    ("serve.dedup_joins", "count");
    ("serve.queue_overhead_ms", "ms");
  ]

(* The compile workloads send no requests: their serve metrics are 0. *)
let no_serve_metrics =
  List.map
    (fun (k, u) -> metric k u 0.0 ~note:"no daemon on this workload")
    serve_layer_names

(* One program measured untraced and then replayed traced. *)
let traced_pair (p : Inputs.program) (r : P.report) ~untraced_ms =
  Gc.full_major ();
  let s = Layers.replay p.Inputs.options p.Inputs.source in
  Layers.check ~label:p.Inputs.label r s;
  (untraced_ms, s)

(* ------------------------------------------------------------------ *)
(* Compile workloads *)

let setup_repeats = 5

(* The fixed warm-up compile of each workload's set-up. *)
let warmup_program (w : Inputs.workload) : Inputs.program =
  match w with
  | Inputs.Gen_compile | Inputs.Gen_budget ->
      let lo, _ = Inputs.gen_range w in
      let g = Rp_workloads.Registry.generated lo in
      {
        Inputs.label = g.Rp_workloads.Registry.name;
        source = g.Rp_workloads.Registry.source;
        options = Inputs.gen_options w;
        size = lo;
      }
  | Inputs.Seed_exec | Inputs.Serve_mixed ->
      let w = Inputs.registry.(0) in
      {
        Inputs.label = w.Rp_workloads.Registry.name;
        source = w.Rp_workloads.Registry.source;
        options = Inputs.seed_options w.Rp_workloads.Registry.name;
        size = 0;
      }

(* Set-up: draw the first pass of inputs and warm the compiler up once.
   Repeated, and the median reported, so set-up time is steady. *)
let setup_compile calib w ~seed =
  let one () =
    Calib.sample calib;
    let t0 = now () in
    let nth = Inputs.stream w ~seed in
    for i = 0 to Inputs.strata - 1 do
      ignore (nth i)
    done;
    let p = warmup_program w in
    ignore (P.run ~options:p.Inputs.options p.Inputs.source);
    (now () -. t0, nth)
  in
  let runs = List.init setup_repeats (fun _ -> one ()) in
  (List.map fst runs, snd (List.hd (List.rev runs)))

let run_compile w ~seed ~seconds ~trace =
  let calib = Calib.create () in
  let setup, nth = setup_compile calib w ~seed in
  let tally = { attempted = 0; failed = 0 } in
  let times = ref [] and ratios = Hashtbl.create 64 and pairs = ref [] in
  let busy = ref 0.0 in
  let i = ref 0 in
  while !busy < seconds do
    let p = nth !i in
    incr i;
    Calib.sample_if_due calib;
    Gc.full_major ();
    let t0 = now () in
    let r = attempt (fun () -> P.run ~options:p.Inputs.options p.Inputs.source) in
    let ms = (now () -. t0) *. 1000.0 in
    Calib.add_work calib ~ms;
    busy := !busy +. (ms /. 1000.0);
    times := ms :: !times;
    tally.attempted <- tally.attempted + 1;
    match r with
    | Error e -> fail tally (p.Inputs.label ^ ": " ^ Printexc.to_string e)
    | Ok r ->
        check_report tally p r;
        Hashtbl.replace ratios (Inputs.describe_program p) (dyn_ratio r);
        if trace then begin
          let t1 = now () in
          pairs := traced_pair p r ~untraced_ms:ms :: !pairs;
          busy := !busy +. (now () -. t1)
        end
  done;
  let peak_rss_mb = Proc.self_peak_rss_mb () in
  Printf.printf "workload %s seed %d fuel %d programs %d distinct %d\n"
    (Inputs.workload_to_string w) seed Inputs.fuel tally.attempted
    (Hashtbl.length ratios);
  let metrics =
    if trace then layer_metrics (List.rev !pairs) @ no_serve_metrics
    else
      let n = List.length !times in
      let per_s = float_of_int n /. (List.fold_left ( +. ) 0.0 !times /. 1000.0) in
      let note = Printf.sprintf "n=%d" n in
      (* a compile workload's request is one [rpromote promote] run *)
      e2e_metrics calib
        {
          in_process = true;
          setup;
          pipeline = !times;
          programs_per_s = per_s;
          programs_note = note;
          requests = !times;
          requests_per_s = per_s;
          requests_note = note;
          ratios = List.of_seq (Hashtbl.to_seq_values ratios);
          peak_rss_mb;
          rss_note = "VmHWM of the compiling process";
        }
  in
  (tally, metrics)

(* ------------------------------------------------------------------ *)
(* serve-mixed *)

let hot_program (r : Inputs.request) : Inputs.program =
  match r.Inputs.target with
  | `Workload name ->
      let w = Option.get (Rp_workloads.Registry.find name) in
      {
        Inputs.label = name;
        source = w.Rp_workloads.Registry.source;
        options = r.Inputs.roptions;
        size = 0;
      }
  | `Source _ -> invalid_arg "hot_program"

let run_serve ~seed ~seconds ~trace ~rpromote =
  let base = Printf.sprintf ".perfbench-run-%d" (Unix.getpid ()) in
  Unix.mkdir base 0o755;
  Fun.protect ~finally:(fun () -> Serve_load.rm_rf base) @@ fun () ->
  (* set-up: draw the first requests, start a daemon on a fresh cache
     directory and fill it with the hot set.  Repeated; each daemon but
     the last is stopped before the next starts. *)
  let calib = Calib.create () in
  let setup k =
    Calib.sample calib;
    let t0 = now () in
    let seq = Inputs.serve_seq ~seed in
    ignore (Inputs.nth_request seq ((Inputs.block * Inputs.strata) - 1));
    let d =
      Serve_load.spawn ~rpromote ~dir:(Filename.concat base (string_of_int k))
    in
    (try Serve_load.prime d
     with e ->
       Serve_load.stop d;
       raise e);
    (now () -. t0, seq, d)
  in
  let rec setups k acc =
    let t, seq, d = setup k in
    if k = setup_repeats then (t :: acc, seq, d)
    else begin
      Serve_load.stop d;
      setups (k + 1) (t :: acc)
    end
  in
  let setup_times, seq, d = setups 1 [] in
  let samples, elapsed, counters, peak_rss_mb =
    Fun.protect
      ~finally:(fun () -> Serve_load.stop d)
      (fun () ->
        for _ = 1 to 20 do
          Calib.sample calib
        done;
        let samples, elapsed = Serve_load.drive d seq ~seconds in
        for _ = 1 to 20 do
          Calib.sample calib
        done;
        let counters = if trace then Some (Serve_load.counters d) else None in
        (samples, elapsed, counters, Serve_load.peak_rss_mb d))
  in
  (* the oracle: one direct run per distinct request, after the load *)
  let tally = { attempted = 0; failed = 0 } in
  let direct = Hashtbl.create 256 in
  let direct_of (r : Inputs.request) =
    match Hashtbl.find_opt direct r.Inputs.rlabel with
    | Some x -> x
    | None ->
        Calib.sample_if_due calib;
        let x =
          match attempt (fun () -> Serve_load.direct r) with
          | Ok (rep, digest, ms) ->
              Calib.add_work calib ~ms;
              if not rep.P.behaviour_ok then
                fail tally (r.Inputs.rlabel ^ ": behaviour changed by promotion");
              Some (digest, ms, dyn_ratio rep)
          | Error e ->
              fail tally (r.Inputs.rlabel ^ ": direct run: " ^ Printexc.to_string e);
              None
        in
        Hashtbl.replace direct r.Inputs.rlabel x;
        x
  in
  let hits = ref [] and colds = ref [] and overhead = ref [] in
  List.iter
    (fun (s : Serve_load.sample) ->
      let r = Inputs.nth_request seq s.Serve_load.index in
      tally.attempted <- tally.attempted + 1;
      match (s.Serve_load.outcome, direct_of r) with
      | Serve_load.Failed m, _ -> fail tally (r.Inputs.rlabel ^ ": " ^ m)
      | Serve_load.Served _, None -> ()
      | Serve_load.Served { cached; digest }, Some (want, direct_ms, _) ->
          if not (Digest.equal digest want) then
            fail tally (r.Inputs.rlabel ^ ": served report differs from a direct run")
          else if cached then hits := s.Serve_load.ms :: !hits
          else begin
            colds := s.Serve_load.ms :: !colds;
            overhead := (s.Serve_load.ms -. direct_ms) :: !overhead
          end)
    samples;
  let distinct = List.filter_map Fun.id (List.of_seq (Hashtbl.to_seq_values direct)) in
  (* dyn_mem_ratio over the hot set, the registry programs at their own
     trip counts: the cold mix would make it depend on the draw *)
  let ratios =
    Array.to_list Inputs.hot
    |> List.filter_map (fun (r : Inputs.request) ->
           match Hashtbl.find_opt direct r.Inputs.rlabel with
           | Some (Some (_, _, ratio)) -> Some ratio
           | _ -> None)
  in
  let cold_requests =
    List.length
      (List.filter
         (fun (s : Serve_load.sample) ->
           (Inputs.nth_request seq s.Serve_load.index).Inputs.cold)
         samples)
  in
  let n = List.length samples in
  Printf.printf
    "workload serve-mixed seed %d fuel %d requests %d cold %d cache-hits %d \
     connections %d\n"
    seed Inputs.fuel n cold_requests (List.length !hits) Serve_load.connections;
  let metrics =
    match counters with
    | Some c ->
        let cold = Summary.summarise !colds in
        let served = List.length !hits + List.length !colds in
        let pairs =
          Array.to_list
            (Array.map
               (fun r ->
                 let p = hot_program r in
                 Gc.full_major ();
                 let t0 = now () in
                 let rep = P.run ~options:p.Inputs.options p.Inputs.source in
                 let ms = (now () -. t0) *. 1000.0 in
                 traced_pair p rep ~untraced_ms:ms)
               Inputs.hot)
        in
        layer_metrics pairs
        @ [
            metric "serve.hit_ms_p50" "ms" (Summary.median !hits)
              ~note:(Printf.sprintf "n=%d" (List.length !hits));
            metric "serve.cold_ms_p50" "ms" cold.Summary.median
              ~note:(Printf.sprintf "n=%d" cold.Summary.n);
            metric "serve.cold_ms_tail" "ms" cold.Summary.tail
              ~note:(Printf.sprintf "p%.1f, n=%d" cold.Summary.tail_pct cold.Summary.n);
            metric "serve.hit_ratio" "ratio"
              (float_of_int (List.length !hits) /. float_of_int served);
            metric "serve.store_writes" "count" (float_of_int c.Serve_load.store_writes);
            metric "serve.store_hits" "count" (float_of_int c.Serve_load.store_hits);
            metric "serve.dedup_joins" "count" (float_of_int c.Serve_load.dedup_joins);
            metric "serve.queue_overhead_ms" "ms" (Summary.median !overhead)
              ~note:"cold latency minus a direct run_fresh_json, median";
          ]
    | None ->
        e2e_metrics calib
          {
            in_process = false;
            setup = setup_times;
            pipeline = List.map (fun (_, ms, _) -> ms) distinct;
            programs_per_s = float_of_int cold_requests /. elapsed;
            programs_note = "cold requests compiled by the daemon per second";
            requests = List.map (fun s -> s.Serve_load.ms) samples;
            requests_per_s = float_of_int n /. elapsed;
            requests_note =
              Printf.sprintf "n=%d, closed loop, %d connections" n
                Serve_load.connections;
            ratios;
            peak_rss_mb;
            rss_note = "VmHWM of the daemon";
          }
  in
  (tally, metrics)

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage =
  "main.exe --workload (gen-compile|gen-budget|seed-exec|serve-mixed) --seed N \
   --seconds S --trace (0|1) [--rpromote PATH]"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0
  and trace = ref 0 and rpromote = ref "_build/default/bin/rpromote.exe" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--rpromote", Arg.Set_string rpromote, "PATH the rpromote executable");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match Inputs.workload_of_string !workload with
    | Some w -> w
    | None ->
        prerr_endline usage;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline usage;
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let interrupted _ = raise Interrupted in
  Printexc.register_printer (function
    | Interrupted -> Some "interrupted"
    | _ -> None);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupted);
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupted);
  let trace = !trace = 1 in
  match
    match w with
    | Inputs.Serve_mixed ->
        run_serve ~seed:!seed ~seconds:!seconds ~trace ~rpromote:!rpromote
    | Inputs.Gen_compile | Inputs.Gen_budget | Inputs.Seed_exec ->
        run_compile w ~seed:!seed ~seconds:!seconds ~trace
  with
  | tally, metrics ->
      let error_rate =
        float_of_int tally.failed /. float_of_int (max 1 tally.attempted)
      in
      Printf.printf "%-28s %16.4f %-8s failed %d of %d\n" "error_rate" error_rate
        "ratio" tally.failed tally.attempted;
      let metrics =
        if trace then metrics
        else
          metrics
          @ [
              metric "success_rate" "ratio" (1.0 -. error_rate)
                ~note:"1 - error_rate";
            ]
      in
      emit ~correct:(tally.failed = 0) ~attempted:tally.attempted
        ~failed:tally.failed metrics
  | exception e ->
      Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
      exit 1
