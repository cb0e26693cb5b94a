(* The traced breakdown: one program through the same public calls that
   [Pipeline.run] makes, in the same order, each call timed from the
   outside.  The promoter's own spans (collected with the trace sink
   on) split the promote layer further.  The replay must reproduce
   [Pipeline.run]'s static and dynamic counts exactly; {!check} holds
   it to that. *)

module P = Rp_core.Pipeline
module Promote = Rp_core.Promote
module Stats = Rp_core.Stats
module Trace = Rp_obs.Trace
module Func = Rp_ir.Func
module Interp = Rp_interp.Interp
module Decode = Rp_interp.Decode
module Engine = Rp_interp.Engine
module Color = Rp_regalloc.Color
module Intervals = Rp_analysis.Intervals
module Freq = Rp_analysis.Freq

(* One program's layer times (ms) and counts, keyed by metric name. *)
type sample = {
  total_ms : float;  (** wall clock of the whole replay *)
  times : (string * float) list;  (** named layer -> ms, in call order *)
  counts : (string * string * float) list;  (** name, unit, value *)
  static_before : Stats.counts;
  static_after : Stats.counts;
  dynamic_before : Interp.counters;
  dynamic_after : Interp.counters;
}

(* The named layers; their times sum to the attributed share of
   [total_ms]. *)
let layer_names =
  [
    "minic.ms";
    "scalrep.ms";
    "intervals.ms";
    "ssa.construct.ms";
    "ssa.verify.ms";
    "opt.cleanup.ms";
    "opt.dse.ms";
    "interp.image_ms";
    "interp.exec_ms";
    "interp.refresh_ms";
    "profile.apply_ms";
    "regalloc.pressure_ms";
    "promote.ms";
  ]

let now () = Unix.gettimeofday ()

(* Accumulating stopwatch per layer. *)
type clock = { acc : (string, float) Hashtbl.t }

let timed (c : clock) name f =
  let t0 = now () in
  let r = f () in
  let dt = (now () -. t0) *. 1000.0 in
  let prev = Option.value (Hashtbl.find_opt c.acc name) ~default:0.0 in
  Hashtbl.replace c.acc name (prev +. dt);
  r

let per_func prog f = List.iter f prog.Func.funcs

(* Self time and totals of the promoter's spans: a span's self time is
   its duration minus its direct children's. *)
let span_totals (spans : Trace.span list) =
  let arr = Array.of_list spans in
  let n = Array.length arr in
  let total = Hashtbl.create 16 and self = Hashtbl.create 16
  and calls = Hashtbl.create 16 in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)
  in
  Array.iteri
    (fun i (s : Trace.span) ->
      add total s.Trace.name s.Trace.duration_ms;
      add calls s.Trace.name 1.0;
      let children = ref 0.0 in
      let j = ref (i + 1) in
      while !j < n && arr.(!j).Trace.depth > s.Trace.depth do
        if arr.(!j).Trace.depth = s.Trace.depth + 1 then
          children := !children +. arr.(!j).Trace.duration_ms;
        incr j
      done;
      add self s.Trace.name (s.Trace.duration_ms -. !children))
    arr;
  let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.0 in
  (get total, get self, get calls)

let construct_engine = function
  | Rp_ssa.Incremental.Cytron -> Rp_ssa.Construct.Cytron
  | Rp_ssa.Incremental.Sreedhar_gao -> Rp_ssa.Construct.Sreedhar_gao

let ir_instrs (prog : Func.prog) =
  List.fold_left
    (fun acc f ->
      Func.fold_blocks
        (fun a b -> a + Rp_ir.Iseq.length b.Rp_ir.Block.body)
        acc f)
    0 prog.Func.funcs

(* Replay [Pipeline.run] on one program with the trace sink collecting.
   Only the flat engine (the default) is replayed. *)
let replay (options : P.options) (source : string) : sample =
  assert (options.P.interp = P.Flat && options.P.profile = P.Measured);
  let c = { acc = Hashtbl.create 16 } in
  let counts = ref [] in
  let count ?(unit_ = "count") k v = counts := (k, unit_, v) :: !counts in
  let t name f = timed c name f in
  Trace.set_sink Trace.Collect;
  Trace.reset ();
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let t_start = now () in
  (* frontend: parse, analyse, (scalar replacement), lower *)
  let mw0 = Gc.minor_words () in
  let prog, sr =
    if not options.P.scalrep then
      ( t "minic.ms" (fun () ->
            Rp_minic.Lower.compile
              ~opt_singleton_deref:options.P.singleton_deref source),
        None )
    else
      let sema0 =
        t "minic.ms" (fun () ->
            Rp_minic.Sema.analyse (Rp_minic.Parser.parse_program source))
      in
      let ast', st = t "scalrep.ms" (fun () -> Rp_scalrep.Transform.program sema0) in
      ( t "minic.ms" (fun () ->
            let sema = Rp_minic.Sema.analyse ast' in
            let alias = Rp_minic.Alias.analyse sema in
            Rp_minic.Lower.lower ~opt_singleton_deref:options.P.singleton_deref
              sema alias),
        Some st )
  in
  count ~unit_:"Mw" "minic.minor_mw" ((Gc.minor_words () -. mw0) /. 1e6);
  count "minic.ir_instrs" (float_of_int (ir_instrs prog));
  count "scalrep.loops_rewritten"
    (match sr with
    | Some st -> float_of_int st.Rp_scalrep.Transform.loops_transformed
    | None -> 0.0);
  let tab = prog.Func.vartab in
  let trees =
    t "intervals.ms" (fun () ->
        List.map
          (fun (f : Func.t) -> (f.Func.fname, Intervals.normalise f))
          prog.Func.funcs)
  in
  let engine = construct_engine options.P.promote.Promote.engine in
  t "ssa.construct.ms" (fun () -> per_func prog (Rp_ssa.Construct.run ~engine));
  let verify () =
    t "ssa.verify.ms" (fun () -> per_func prog (Rp_ssa.Verify.assert_ok tab))
  in
  verify ();
  t "opt.cleanup.ms" (fun () -> per_func prog Rp_opt.Cleanup.run);
  let image = t "interp.image_ms" (fun () -> Decode.decode prog) in
  let fuel = options.P.fuel in
  let baseline = t "interp.exec_ms" (fun () -> Engine.run ~fuel image) in
  t "profile.apply_ms" (fun () ->
      Interp.apply_profile prog baseline;
      List.iter
        (fun (f : Func.t) ->
          if not (Freq.has_profile f) then
            match List.assoc_opt f.Func.fname trees with
            | Some tree -> Freq.estimate f tree
            | None -> ())
        prog.Func.funcs);
  let static_before = Stats.of_prog prog in
  let k = P.effective_regs options in
  let pressure () =
    t "regalloc.pressure_ms" (fun () ->
        List.map (fun (f : Func.t) -> Color.analyse f ~k) prog.Func.funcs)
  in
  let colors ss =
    float_of_int (List.fold_left (fun a s -> a + s.Color.s_colors) 0 ss)
  in
  count "regalloc.colors_before" (colors (pressure ()));
  let cfg = P.effective_promote options in
  let mw0 = Gc.minor_words () in
  let per_function =
    t "promote.ms" (fun () ->
        List.filter_map
          (fun (f : Func.t) ->
            match List.assoc_opt f.Func.fname trees with
            | Some tree -> Some (Promote.promote_function ~cfg f tab tree)
            | None -> None)
          prog.Func.funcs)
  in
  count ~unit_:"Mw" "promote.minor_mw" ((Gc.minor_words () -. mw0) /. 1e6);
  let stats = List.fold_left Promote.add (Promote.empty_stats ()) per_function in
  count "promote.webs_seen" (float_of_int stats.Promote.webs_seen);
  count "promote.webs_promoted" (float_of_int stats.Promote.webs_promoted);
  count "promote.webs_skipped"
    (float_of_int
       (stats.Promote.webs_skipped_profit + stats.Promote.webs_skipped_pressure
      + stats.Promote.webs_skipped_malformed));
  (* finalisation, as in the pipeline: verify, clean, verify *)
  verify ();
  let removed = ref 0 in
  per_func prog (fun f ->
      t "opt.cleanup.ms" (fun () -> Rp_opt.Cleanup.run f);
      if options.P.scalrep then begin
        removed := !removed + t "opt.dse.ms" (fun () -> Rp_opt.Dse.run f);
        t "opt.cleanup.ms" (fun () -> Rp_opt.Cleanup.run f)
      end);
  count "opt.dse.removed" (float_of_int !removed);
  verify ();
  let static_after = Stats.of_prog prog in
  count "regalloc.colors_after" (colors (pressure ()));
  t "interp.refresh_ms" (fun () -> Decode.refresh image);
  let final = t "interp.exec_ms" (fun () -> Engine.run ~fuel image) in
  let total_ms = (now () -. t_start) *. 1000.0 in
  count "gc.major_collections"
    (float_of_int ((Gc.quick_stat ()).Gc.major_collections - majors0));
  let spans = Trace.spans () in
  Trace.set_sink Trace.Off;
  Trace.reset ();
  let total, self, calls = span_totals spans in
  count ~unit_:"ms" "promote.incremental_ms" (total "ssa.incremental_update");
  count "promote.incremental_calls" (calls "ssa.incremental_update");
  count ~unit_:"ms" "promote.webinfo_ms" (total "promote.webinfo");
  count ~unit_:"ms" "promote.tails_ms" (total "promote.tails");
  count ~unit_:"ms" "promote.deadstores_ms" (total "promote.deadstores");
  count ~unit_:"ms" "promote.interval_self_ms" (self "promote.interval");
  count "ssa.verify.calls" (float_of_int (3 * List.length prog.Func.funcs));
  count "interp.instrs"
    (float_of_int
       (baseline.Interp.counters.Interp.instrs + final.Interp.counters.Interp.instrs));
  if not (Interp.same_behaviour baseline final) then
    failwith "traced replay changed the program's behaviour";
  {
    total_ms;
    times =
      List.map
        (fun name ->
          (name, Option.value (Hashtbl.find_opt c.acc name) ~default:0.0))
        layer_names;
    counts = List.rev !counts;
    static_before;
    static_after;
    dynamic_before = baseline.Interp.counters;
    dynamic_after = final.Interp.counters;
  }

(* The replay must agree with the real pipeline on every count. *)
let check ~label (r : P.report) (s : sample) =
  let counters (c : Interp.counters) =
    [
      c.Interp.loads;
      c.Interp.stores;
      c.Interp.aliased_loads;
      c.Interp.aliased_stores;
      c.Interp.instrs;
    ]
  in
  let same =
    Stats.to_alist r.P.static_before = Stats.to_alist s.static_before
    && Stats.to_alist r.P.static_after = Stats.to_alist s.static_after
    && counters r.P.dynamic_before = counters s.dynamic_before
    && counters r.P.dynamic_after = counters s.dynamic_after
  in
  if not same then
    failwith
      (Printf.sprintf
         "traced replay of %s disagrees with Pipeline.run on static or \
          dynamic counts"
         label)
