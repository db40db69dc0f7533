(* The benchmark: runs one named workload for a fixed time from a seed,
   checks its outputs, and prints every metric by name and unit; the last
   stdout line is the JSON result.  With [--trace 1] it prints the
   per-layer metrics of a traced run instead of the end-to-end ones.
   See README.md in this directory. *)

module Json = Scamv_util.Json
module Metrics = Scamv_telemetry.Metrics
module Collector = Scamv_telemetry.Collector

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  nproc : int;
  workdir : string;
  reference : string;
}

let usage =
  "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--nproc N] [--workdir DIR] \
   [--reference FILE]\n\
   perfbench.exe reference --first N --last M   (print reference.json for seeds N..M)"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Result line                                                          *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let print_result ~correct ~attempted ~failed metrics =
  print_endline "metrics:";
  List.iter (fun x -> Printf.printf "  %-36s %.9g %s\n" x.name x.value x.unit_) metrics;
  let fields =
    List.map
      (fun x ->
        if not (Float.is_finite x.value) then die "metric %s is not a finite number" x.name;
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* Reference verdict sequences                                          *)
(* ------------------------------------------------------------------ *)

let load_reference path ~key ~seed =
  if not (Sys.file_exists path) then None
  else
    let j = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
    match Option.bind (Json.member key j) (Json.member (string_of_int seed)) with
    | Some entry -> (
      match (Json.member "experiments" entry, Json.member "digest" entry) with
      | Some (Json.Num n), Some (Json.Str d) ->
        Some { Batch.experiments = int_of_float n; digest = d }
      | _ -> die "malformed reference entry %s/%d in %s" key seed path)
    | None -> None

(* A batch run cycles through [rotation] campaigns whose seeds derive from
   the run seed (3s, 3s+1, 3s+2), so its figures average over three times
   the programs one campaign holds; program costs differ enough between
   seeds that one campaign's tail would dominate [latency_p90_s]. *)
let rotation = 3

(* Each campaign's reference: recorded in reference.json, or — for a
   campaign seed nobody recorded — computed by the bench-side pipeline
   loop at jobs=1 (independent of Campaign.run and the pool).  Forced only
   when the reps are checked, after measuring, so the computation cannot
   warm the measured process's heap. *)
let campaign_cases (fam : Batch.family) ~args =
  Array.init rotation (fun r ->
      let seed = (args.seed * rotation) + r in
      ( Int64.of_int seed,
        lazy
          (match load_reference args.reference ~key:fam.key ~seed with
          | Some v -> v
          | None ->
            Printf.printf "reference: seed %d not in %s, computing it with the bench-side loop\n%!"
              seed args.reference;
            let t = Batch.traced_rep fam ~jobs:1 ~seed:(Int64.of_int seed) ~dir:args.workdir ~i:999 in
            Batch.verdicts t.Batch.t_events) ))

let reference_mode ~first ~last =
  let family (fam : Batch.family) =
    let entries =
      List.init (last - first + 1) (fun k ->
          let seed = first + k in
          let cfg = Batch.resolve fam ~seed:(Int64.of_int seed) in
          let events = ref [] in
          let (_ : Scamv.Campaign.outcome) =
            Scamv.Campaign.run ~on_record:(fun ev -> events := ev :: !events) cfg
          in
          let v = Batch.verdicts (List.rev !events) in
          Printf.eprintf "%s seed %d: %d experiments\n%!" fam.key seed v.experiments;
          ( string_of_int seed,
            Json.Obj
              [
                ("experiments", Json.Num (float_of_int v.experiments));
                ("digest", Json.Str v.digest);
              ] ))
    in
    (fam.key, Json.Obj entries)
  in
  let refined = family Batch.refined_a in
  let unguided = family Batch.unguided_b in
  print_endline (Json.to_string ~pretty:true (Json.Obj [ refined; unguided ]))

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                       *)
(* ------------------------------------------------------------------ *)

(* Run information, printed with every run but not a metric: it says
   what the host offered, not how fast the program was. *)
let print_cores (c : Sampler.cores) ~jobs =
  Printf.printf "cores: nproc %d, Domain.recommended_domain_count %d, jobs %d, cores_limited %b\n"
    c.nproc c.recommended jobs (Sampler.cores_limited c ~jobs)

let gc_metrics (g : Sampler.gc) ~per =
  [
    m "gc.minor_collections" "count" (float_of_int g.minor_collections /. per);
    m "gc.major_collections" "count" (float_of_int g.major_collections /. per);
    m "gc.minor_words" "words" (g.minor_words /. per);
    m "gc.promoted_words" "words" (g.promoted_words /. per);
  ]

let gc_sum gs =
  List.fold_left
    (fun (a : Sampler.gc) (b : Sampler.gc) ->
      {
        Sampler.minor_collections = a.minor_collections + b.minor_collections;
        major_collections = a.major_collections + b.major_collections;
        minor_words = a.minor_words +. b.minor_words;
        promoted_words = a.promoted_words +. b.promoted_words;
      })
    { Sampler.minor_collections = 0; major_collections = 0; minor_words = 0.0; promoted_words = 0.0 }
    gs

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let count f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* Repeat [f] (at least [min] times) for about [seconds]: stop once the
   next call would end nearer past the budget than the last one ended
   before it. *)
let repeat_for ~seconds ~min f =
  let t0 = Sampler.now () in
  let rec go i acc last =
    let elapsed = Sampler.now () -. t0 in
    if i >= min && elapsed +. (last /. 2.0) >= seconds then List.rev acc
    else
      let s = Sampler.now () in
      let r = f i in
      go (i + 1) (r :: acc) (Sampler.now () -. s)
  in
  go 0 [] 0.0

(* ------------------------------------------------------------------ *)
(* Set-up time                                                          *)
(* ------------------------------------------------------------------ *)

(* Set-up is what an invocation pays before its first program is
   dispatched or its server accepts: process start, runtime and module
   initialisation, config resolution, then journal creation (batch) or
   scheduler + server start (service).  Each sample launches this
   executable in [setup-probe] mode, which does exactly that, reports
   readiness on its stdout pipe (the sample ends there) and exits.

   A sample is a few milliseconds, and the host's speed at that scale
   drifts within seconds: medians of 15 back-to-back samples taken 1.5 s
   apart spread by about 20%.  So samples are taken in small groups
   spread over the whole run (before the first rep and between reps or
   service rounds, never while the workload runs), and their median is
   reported. *)
type probes = { workload : string; seed : int; dir : string; mutable samples : float list }

let probes ~(args : args) = { workload = args.workload; seed = args.seed; dir = args.workdir; samples = [] }

let probe_group p n =
  for _ = 1 to n do
    let probe_dir = Filename.concat p.dir (Printf.sprintf "probe-%d" (List.length p.samples)) in
    let r, w = Unix.pipe ~cloexec:true () in
    let t0 = Sampler.now () in
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "setup-probe"; p.workload; string_of_int p.seed; probe_dir |]
        Unix.stdin w Unix.stderr
    in
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let ready = In_channel.input_line ic in
    let dt = Sampler.now () -. t0 in
    In_channel.close ic;
    match (ready, Unix.waitpid [] pid) with
    | Some "ready", (_, Unix.WEXITED 0) -> p.samples <- dt :: p.samples
    | _ -> die "setup probe for %s failed" p.workload
  done

let setup_s p =
  Sampler.pp_summary "setup" "s" (Sampler.summarize p.samples);
  Sampler.median p.samples

let setup_probe kind ~seed ~dir =
  let ready () = print_endline "ready" in
  match kind with
  | `Campaign (fam, _) ->
    let _, journal, _ = Batch.setup fam ~seed:(Int64.of_int seed) ~path:(Batch.journal_path dir 0) in
    ready ();
    Scamv.Journal.close journal
  | `Service ->
    let s = Service.start ~state_dir:dir in
    ready ();
    Service.stop s

(* ------------------------------------------------------------------ *)
(* Campaign workloads                                                   *)
(* ------------------------------------------------------------------ *)

(* Per-rep outcome check: a rep is correct when its verdict sequence
   equals the reference; otherwise every program in it counts as
   failed. *)
let check_rep (fam : Batch.family) ~expected events =
  let v = Batch.verdicts events in
  let failures = List.length (List.filter Batch.is_failure events) in
  if v <> expected then begin
    Printf.printf "MISMATCH: %d experiments, digest %s (expected %d, %s)\n" v.experiments v.digest
      expected.Batch.experiments expected.digest;
    fam.programs
  end
  else failures

(* One rep's figures, whichever loop ran it. *)
type rep = {
  campaign : int;  (** index into the run's rotation *)
  experiments : int;
  wall_s : float;
  cpu_s : float;
}

(* Rep [i] runs campaign [i mod rotation]; it is returned with a check to
   run once measuring is over, giving its failed program count. *)
let checked fam ~cases ~run i =
  let campaign = i mod Array.length cases in
  let seed, expected = cases.(campaign) in
  let events, r = run ~campaign ~seed ~i in
  (r, fun () -> check_rep fam ~expected:(Lazy.force expected) events)

(* [Campaign.run], as the CLI drives it. *)
let untraced fam ~jobs ~cases ~args i =
  checked fam ~cases i ~run:(fun ~campaign ~seed ~i ->
      let r = Batch.untraced_rep fam ~jobs ~seed ~dir:args.workdir ~i in
      ( r.Batch.events,
        ( { campaign; experiments = Batch.experiments r.events; wall_s = r.latency_s; cpu_s = r.cpu_s },
          r ) ))

(* The bench-side loop, with or without its spans. *)
let loop ~tracing fam ~jobs ~cases ~args i =
  checked fam ~cases i ~run:(fun ~campaign ~seed ~i ->
      let c0 = Sampler.cpu () in
      let t = Batch.traced_rep ~tracing fam ~jobs ~seed ~dir:args.workdir ~i in
      ( t.Batch.t_events,
        ( {
            campaign;
            experiments = Batch.experiments t.t_events;
            wall_s = t.t_wall_s;
            cpu_s = Sampler.cpu () -. c0;
          },
          t ) ))

let run_checks checks = count (fun (_, check) -> check ()) checks

(* A run's throughput and CPU.  Each campaign of the rotation contributes
   its lowest wall and its lowest CPU over its reps: other load on a
   shared host only ever slows a rep down, so the least-disturbed rep is
   the steadiest estimate of the campaign's cost.  The rotation's
   campaigns are combined so each counts once however many reps it got:
   experiments over summed wall, mean CPU. *)
type totals = { eps : float; campaigns_per_s : float; cpu_per_campaign : float }

let lowest xs = List.fold_left Float.min infinity xs

let totals reps =
  let by f c = lowest (List.filter_map (fun r -> if r.campaign = c then Some (f r) else None) reps) in
  let campaigns = List.sort_uniq compare (List.map (fun r -> r.campaign) reps) in
  let wall = sum (by (fun r -> r.wall_s)) campaigns in
  let n = float_of_int (List.length campaigns) in
  {
    eps = sum (by (fun r -> float_of_int r.experiments)) campaigns /. wall;
    campaigns_per_s = n /. wall;
    cpu_per_campaign = sum (by (fun r -> r.cpu_s)) campaigns /. n;
  }

(* Each program of the rotation once, with its lowest latencies over the
   reps that ran it, for the same reason as [totals]; at jobs=2 this also
   keeps the figure from hanging on how the reps happened to interleave
   programs, which sets how long a record waits for the in-order merge. *)
let program_latencies reps (raw : Batch.rep list) =
  let best = Hashtbl.create 512 in
  List.iter2
    (fun r (b : Batch.rep) ->
      List.iter
        (fun (l : Batch.program_latency) ->
          let key = (r.campaign, l.index) in
          match Hashtbl.find_opt best key with
          | None -> Hashtbl.replace best key l
          | Some (o : Batch.program_latency) ->
            Hashtbl.replace best key
              { l with first_s = Float.min o.first_s l.first_s; done_s = Float.min o.done_s l.done_s })
        b.program_latencies)
    reps raw;
  Hashtbl.fold (fun _ l acc -> l :: acc) best []

let print_reps label reps =
  Printf.printf "%s: %d reps\n" label (List.length reps);
  List.iter
    (fun c ->
      let mine = List.filter (fun r -> r.campaign = c) reps in
      Printf.printf "  campaign %d: %d experiments, wall %s, cpu %s\n" c
        (match mine with r :: _ -> r.experiments | [] -> 0)
        (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.wall_s) mine))
        (String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.cpu_s) mine)))
    (List.sort_uniq compare (List.map (fun r -> r.campaign) reps));
  Sampler.pp_summary "rep wall" "s" (Sampler.summarize (List.map (fun r -> r.wall_s) reps));
  Sampler.pp_summary "rep cpu" "s" (Sampler.summarize (List.map (fun r -> r.cpu_s) reps))

let campaign_end_to_end (fam : Batch.family) ~jobs ~args ~cores =
  let probes = probes ~args in
  probe_group probes 6;
  let cases = campaign_cases fam ~args in
  (* The first campaign in a process runs on a cold heap; it is checked
     but not timed.  Peak RSS is read right after it: the footprint of a
     process that ran one campaign, as a CLI invocation does (later reps
     would add a per-run drift of their own). *)
  let (((warmup, _), _) as checked_warmup) = untraced fam ~jobs ~cases ~args 0 in
  let peak_rss_mb = Sampler.peak_rss_mb () in
  Printf.printf "warm-up rep: %.3f s, peak RSS %.2f MiB\n" warmup.wall_s peak_rss_mb;
  let checked_reps =
    repeat_for ~seconds:args.seconds ~min:rotation (fun i ->
        let r = untraced fam ~jobs ~cases ~args i in
        probe_group probes 3;
        r)
  in
  let reps = List.map (fun ((r, _), _) -> r) checked_reps in
  let raw = List.map (fun ((_, b), _) -> b) checked_reps in
  print_reps "untraced" reps;
  print_cores cores ~jobs;
  let failed = run_checks (checked_warmup :: checked_reps) in
  let lat = program_latencies reps raw in
  let done_s = List.map (fun (l : Batch.program_latency) -> l.done_s) lat in
  let attempted = (1 + List.length reps) * fam.programs in
  Printf.printf "failed_share %.6f (%d of %d programs)\n" (float_of_int failed /. float_of_int attempted)
    failed attempted;
  let t = totals reps in
  print_result ~correct:(failed = 0) ~attempted ~failed
    [
      m "experiments_per_s" "1/s" t.eps;
      m "campaigns_per_s" "1/s" t.campaigns_per_s;
      m "latency_p50_s" "s" (Sampler.quantile 0.5 done_s);
      m "latency_p90_s" "s" (Sampler.quantile 0.9 done_s);
      m "first_record_p50_s" "s" (Sampler.median (List.map (fun (l : Batch.program_latency) -> l.first_s) lat));
      m "cpu_s" "s" t.cpu_per_campaign;
      m "peak_rss_mb" "MiB" peak_rss_mb;
      m "setup_s" "s" (setup_s probes);
    ]

let campaign_traced (fam : Batch.family) ~jobs ~args ~cores =
  let cases = campaign_cases fam ~args in
  let half = args.seconds /. 2.0 in
  let checked_warmup = untraced fam ~jobs ~cases ~args 0 in
  (* the same loop without and then with its spans: the throughput ratio
     is the cost of tracing alone *)
  let checked_plain = repeat_for ~seconds:half ~min:rotation (loop ~tracing:false fam ~jobs ~cases ~args) in
  (* every traced rep must reproduce the reference, hence the untraced
     verdicts too *)
  let checked_traced = repeat_for ~seconds:half ~min:rotation (loop ~tracing:true fam ~jobs ~cases ~args) in
  let plain = List.map (fun ((r, _), _) -> r) checked_plain in
  let traced_reps = List.map (fun ((r, _), _) -> r) checked_traced in
  let traced = List.map (fun ((_, t), _) -> t) checked_traced in
  print_reps "untraced loop" plain;
  print_reps "traced loop" traced_reps;
  let failed = run_checks [ checked_warmup ] + run_checks checked_plain + run_checks checked_traced in
  let attempted = (1 + List.length plain + List.length traced) * fam.programs in
  let n = float_of_int (List.length traced) in
  let wall = sum (fun (t : Batch.traced) -> t.t_wall_s) traced in
  let tbl = Hashtbl.create 32 in
  let metrics = ref Metrics.empty in
  List.iter
    (fun (t : Batch.traced) ->
      List.iter
        (fun (p : Batch.program_result) ->
          Trace.accumulate tbl ~bench:p.spans ~library:p.report.Collector.spans;
          metrics := Metrics.merge !metrics p.report.Collector.metrics)
        t.programs;
      Trace.accumulate tbl ~bench:t.main_spans ~library:[])
    traced;
  let incl name = (Trace.get tbl name).Trace.incl_s /. n in
  let self name = (Trace.get tbl name).Trace.self_s /. n in
  let words name = (Trace.get tbl name).Trace.self_words /. n in
  let capacity = float_of_int jobs *. wall /. n in
  let program = incl "core.program" in
  let covered = program +. if jobs = 1 then incl "journal.record" else 0.0 in
  Printf.printf "traced: %d reps, %.6f s wall per campaign, jobs %d\n" (List.length traced) (wall /. n) jobs;
  Trace.print_table tbl ~per:n ~capacity_s:capacity;
  Printf.printf "  %-30s %12s %12.6f %7.2f%%\n" "unattributed (loop, idle)" "" (capacity -. covered)
    (100.0 *. (capacity -. covered) /. capacity);
  let counter name = float_of_int (Metrics.counter !metrics name) /. n in
  let hits = counter "smt.blast_cache_hits" and misses = counter "smt.blast_cache_misses" in
  let gc = gc_sum (List.map (fun (t : Batch.traced) -> t.t_gc) traced) in
  (* Minor words per layer are printed above ("self words") and not
     registered: the service workload cannot split them by layer. *)
  print_cores cores ~jobs;
  let median_of f = Sampler.median (List.map f traced) in
  print_result ~correct:(failed = 0) ~attempted ~failed
    ([
       m "generator.gen_s" "s" (incl "generator.gen");
       m "bir.annotate_s" "s" (incl "bir.annotate");
       m "symbolic.symexec_s" "s" (incl "symbolic.symexec");
       m "pipeline.prepare_s" "s" (incl "pipeline.prepare");
       m "relation.synth_s" "s" (incl "relation.synth");
       m "smt.blast_cache_misses" "count" misses;
       m "smt.blast_hit_ratio" "ratio" (hits /. (hits +. misses));
       m "pipeline.next_case_s" "s" (incl "pipeline.next_case");
       m "smt.enumerate_s" "s" (incl "smt.enumerate");
       m "relation.training_concretize_s" "s" (self "pipeline.next_case");
       m "sat.queries" "count" (counter "sat.queries");
       m "sat.conflicts" "count" (counter "sat.conflicts");
       m "sat.propagations" "count" (counter "sat.propagations");
       m "smt.models" "count" (counter "smt.models");
       m "smt.models_per_query" "ratio" (counter "smt.models" /. counter "sat.queries");
       m "microarch.execute_s" "s" (incl "microarch.execute");
       m "microarch.runs" "count" (counter "uarch.experiments");
       m "uarch.cache.misses" "count" (counter "uarch.cache.misses");
       m "uarch.transient_loads" "count" (counter "uarch.transient_loads");
       m "journal.record_s" "s" (incl "journal.record");
       m "pool.busy_share" "ratio" (program /. capacity);
       m "core.program_s" "s" program;
     ]
    @ gc_metrics gc ~per:n
    @ [
        (* the batch front end's stages, named as the service's: submit
           = config resolution + journal creation (what the scheduler
           does on submit, without HTTP), run = the campaign's own
           reported wall, non-run = the rep's wall − run *)
        m "service.submit_s_p50" "s" (median_of (fun t -> t.Batch.t_setup_s));
        m "service.run_s_p50" "s" (median_of (fun t -> t.Batch.t_run_s));
        m "service.nonrun_s_p50" "s" (median_of (fun t -> t.Batch.t_wall_s -. t.Batch.t_run_s));
        m "trace.unattributed_s" "s" (capacity -. covered);
        m "trace.named_share" "ratio" (covered /. capacity);
        m "trace.overhead_share" "ratio" (((totals plain).eps /. (totals traced_reps).eps) -. 1.0);
        m "journal.record.minor_words" "words" (words "journal.record");
      ])

(* ------------------------------------------------------------------ *)
(* Service workload                                                     *)
(* ------------------------------------------------------------------ *)

(* The run's campaign seeds and each one's batch reference, computed
   once per run before anything is measured. *)
let service_inputs (args : args) =
  let seeds = Service.campaign_seeds args.seed in
  (seeds, Service.reference seeds)

(* The gaps before, between and after a window's rounds take set-up
   samples when [probes] is given. *)
let service_window ?probes ~(args : args) ~inputs:(seeds, expected) ~seconds ~journaled ~traced ~tag () =
  let between () = Option.iter (fun p -> probe_group p 6) probes in
  between ();
  let w =
    Service.drive ~state_dir:(Filename.concat args.workdir ("state-" ^ tag)) ~seeds ~expected ~seconds
      ~between ~journaled ~traced ~dir:args.workdir
  in
  between ();
  w

let service_failed (w : Service.window) =
  List.length (List.filter (fun (x : Service.sample) -> x.error <> None) w.samples)

let ok_samples (w : Service.window) = List.filter (fun (x : Service.sample) -> x.error = None) w.samples

let service_eps (w : Service.window) =
  float_of_int (List.fold_left (fun a (x : Service.sample) -> a + x.records) 0 w.samples) /. w.wall_s

let print_window label (w : Service.window) =
  List.iter
    (fun (x : Service.sample) -> Option.iter (Printf.printf "FAILED campaign: %s\n") x.error)
    w.samples;
  let ok = ok_samples w in
  Printf.printf "%s: %d campaigns (%d failed) in %.3f s\n" label (List.length w.samples)
    (service_failed w) w.wall_s;
  Sampler.pp_summary "latency" "s" (Sampler.summarize (List.map (fun (x : Service.sample) -> x.latency_s) ok));
  Sampler.pp_summary "first record" "s" (Sampler.summarize (List.map (fun (x : Service.sample) -> x.first_s) ok))

(* A round's end-to-end figures.  Its latencies are pooled over every
   campaign it served, so time spent waiting in the scheduler's queue
   stays in them. *)
type round_figures = { r_eps : float; r_cps : float; r_p50 : float; r_p90 : float; r_first : float; r_cpu : float }

let round_figures (r : Service.round) =
  let n = float_of_int (List.length r.r_samples) in
  let ok = List.filter (fun (x : Service.sample) -> x.error = None) r.r_samples in
  let lat = List.map (fun (x : Service.sample) -> x.latency_s) ok in
  {
    r_eps = float_of_int (List.fold_left (fun a (x : Service.sample) -> a + x.records) 0 r.r_samples) /. r.r_wall_s;
    r_cps = n /. r.r_wall_s;
    r_p50 = Sampler.quantile 0.5 lat;
    r_p90 = Sampler.quantile 0.9 lat;
    r_first = Sampler.median (List.map (fun (x : Service.sample) -> x.first_s) ok);
    r_cpu = r.r_cpu_s /. n;
  }

let service_end_to_end ~args ~cores =
  let probes = probes ~args in
  let w =
    service_window ~probes ~args ~inputs:(service_inputs args) ~seconds:args.seconds ~journaled:false
      ~traced:false ~tag:"main" ()
  in
  print_window "service" w;
  print_cores cores ~jobs:Service.jobs;
  let n = List.length w.samples and failed = service_failed w in
  Printf.printf "failed_share %.6f (%d of %d campaigns)\n" (float_of_int failed /. float_of_int n) failed n;
  (* The service's counterpart of a batch campaign's fastest rep: each
     figure is the best of its value over the window's rounds, the round
     other load on the host disturbed least. *)
  let rounds = List.map round_figures w.rounds in
  List.iteri
    (fun i f ->
      Printf.printf "  round %d: %.3f campaigns/s, latency p50 %.6f p90 %.6f, first record p50 %.6f, cpu %.6f s\n"
        (i + 1) f.r_cps f.r_p50 f.r_p90 f.r_first f.r_cpu)
    rounds;
  let highest f = List.fold_left (fun a r -> Float.max a (f r)) neg_infinity rounds in
  let lowest_of f = lowest (List.map f rounds) in
  print_result ~correct:(failed = 0) ~attempted:n ~failed
    [
      m "experiments_per_s" "1/s" (highest (fun r -> r.r_eps));
      m "campaigns_per_s" "1/s" (highest (fun r -> r.r_cps));
      m "latency_p50_s" "s" (lowest_of (fun r -> r.r_p50));
      m "latency_p90_s" "s" (lowest_of (fun r -> r.r_p90));
      m "first_record_p50_s" "s" (lowest_of (fun r -> r.r_first));
      m "cpu_s" "s" (lowest_of (fun r -> r.r_cpu));
      m "peak_rss_mb" "MiB" w.peak_rss_mb;
      m "setup_s" "s" (setup_s probes);
    ]

let service_traced ~args ~cores =
  let half = args.seconds /. 2.0 in
  (* both windows persist the streamed records, so their throughput ratio
     is the cost of the spans alone *)
  let inputs = service_inputs args in
  let window ~traced ~tag =
    service_window ~args ~inputs ~seconds:half ~journaled:true ~traced ~tag ()
  in
  let u = window ~traced:false ~tag:"untraced" in
  let w = window ~traced:true ~tag:"traced" in
  print_window "untraced" u;
  print_window "traced" w;
  let ok = ok_samples w in
  let n = float_of_int (List.length w.samples) in
  let failed = service_failed u + service_failed w in
  let attempted = List.length u.samples + List.length w.samples in
  let counter name = float_of_int (Metrics.counter w.after name - Metrics.counter w.before name) in
  let per_campaign name = counter name /. n in
  let span name =
    (Metrics.histogram_sum w.after ("span." ^ name ^ ".seconds")
    -. Metrics.histogram_sum w.before ("span." ^ name ^ ".seconds"))
    /. n
  in
  let program = span "program" in
  let next_case = program -. span "generate" -. span "prepare" -. span "execute" in
  let p50 f = Sampler.median (List.map f ok) in
  let nonrun (x : Service.sample) = x.latency_s -. x.run_s in
  let hits = per_campaign "smt.blast_cache_hits" and misses = per_campaign "smt.blast_cache_misses" in
  let capacity = float_of_int Service.program_domains *. w.wall_s in
  let tbl = Hashtbl.create 8 in
  List.iter (fun spans -> Trace.accumulate tbl ~bench:spans ~library:[]) w.spans;
  Printf.printf "traced client spans:\n";
  Trace.print_table tbl ~per:n ~capacity_s:(w.wall_s *. float_of_int Service.clients /. n);
  Printf.printf "server layers (per campaign, from the telemetry span histograms):\n";
  List.iter
    (fun l -> Printf.printf "  %-30s %12.6f\n" l (span l))
    [ "program"; "generate"; "prepare"; "annotate"; "symexec"; "synth"; "enumerate"; "execute" ];
  (* HTTP counters from /metrics: service-only, so printed rather than
     registered; errors and rejections also fail campaigns *)
  Printf.printf "http: %.0f requests, %.0f on reused connections (%.4f), %.0f errors, %.0f rejected\n"
    (counter "service.http.requests") (counter "service.connections_reused")
    (counter "service.connections_reused" /. counter "service.http.requests")
    (counter "service.http.errors") (counter "service.connections_rejected");
  print_cores cores ~jobs:Service.jobs;
  print_result ~correct:(failed = 0) ~attempted ~failed
    ([
       m "generator.gen_s" "s" (span "generate");
       m "bir.annotate_s" "s" (span "annotate");
       m "symbolic.symexec_s" "s" (span "symexec");
       m "pipeline.prepare_s" "s" (span "prepare");
       m "relation.synth_s" "s" (span "synth");
       m "smt.blast_cache_misses" "count" misses;
       m "smt.blast_hit_ratio" "ratio" (hits /. (hits +. misses));
       m "pipeline.next_case_s" "s" next_case;
       m "smt.enumerate_s" "s" (span "enumerate");
       m "relation.training_concretize_s" "s" (next_case -. span "enumerate" -. span "portfolio");
       m "sat.queries" "count" (per_campaign "sat.queries");
       m "sat.conflicts" "count" (per_campaign "sat.conflicts");
       m "sat.propagations" "count" (per_campaign "sat.propagations");
       m "smt.models" "count" (per_campaign "smt.models");
       m "smt.models_per_query" "ratio" (counter "smt.models" /. counter "sat.queries");
       m "microarch.execute_s" "s" (span "execute");
       m "microarch.runs" "count" (per_campaign "uarch.experiments");
       m "uarch.cache.misses" "count" (per_campaign "uarch.cache.misses");
       m "uarch.transient_loads" "count" (per_campaign "uarch.transient_loads");
       m "journal.record_s" "s" ((Trace.get tbl "journal.record").Trace.incl_s /. n);
       m "pool.busy_share" "ratio" (program *. n /. capacity);
       m "core.program_s" "s" program;
     ]
    @ gc_metrics w.gc ~per:n
    @ [
        m "service.submit_s_p50" "s" (p50 (fun (x : Service.sample) -> x.submit_s));
        m "service.run_s_p50" "s" (p50 (fun (x : Service.sample) -> x.run_s));
        m "service.nonrun_s_p50" "s" (p50 nonrun);
        m "trace.unattributed_s" "s" (p50 (fun (x : Service.sample) -> nonrun x -. x.submit_s));
        m "trace.named_share" "ratio"
          (p50 (fun (x : Service.sample) -> (x.submit_s +. x.run_s) /. x.latency_s));
        m "trace.overhead_share" "ratio" ((service_eps u /. service_eps w) -. 1.0);
        m "journal.record.minor_words" "words"
          ((Trace.get tbl "journal.record").Trace.self_words /. n);
      ])

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let workloads =
  [
    ("refined-a-j1", `Campaign (Batch.refined_a, 1));
    ("refined-a-j2", `Campaign (Batch.refined_a, 2));
    ("unguided-b-j1", `Campaign (Batch.unguided_b, 1));
    ("service-interactive", `Service);
  ]

let parse argv =
  let get = Hashtbl.create 8 in
  let rec go = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      Hashtbl.replace get (String.sub flag 2 (String.length flag - 2)) v;
      go rest
    | [] -> ()
    | x :: _ -> die "unexpected argument %S\n%s" x usage
  in
  go argv;
  let find k = match Hashtbl.find_opt get k with Some v -> v | None -> die "missing --%s\n%s" k usage in
  let int k = match int_of_string_opt (find k) with Some v -> v | None -> die "--%s wants an integer" k in
  let opt k d = Option.value (Hashtbl.find_opt get k) ~default:d in
  {
    workload = find "workload";
    seed = int "seed";
    seconds = float_of_int (int "seconds");
    trace = (match find "trace" with "0" -> false | "1" -> true | _ -> die "--trace wants 0 or 1");
    nproc = (match int_of_string_opt (opt "nproc" "0") with Some v -> v | None -> 0);
    workdir = opt "workdir" (Filename.concat Filename.current_dir_name ".perfbench-run");
    reference = opt "reference" (Filename.concat "perfbench" "reference.json");
  }

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "reference"; "--first"; a; "--last"; b ] -> reference_mode ~first:(int_of_string a) ~last:(int_of_string b)
  | [ "setup-probe"; workload; seed; dir ] -> (
    match List.assoc_opt workload workloads with
    | Some kind -> setup_probe kind ~seed:(int_of_string seed) ~dir
    | None -> die "setup-probe: unknown workload %s" workload)
  | argv ->
    let args = parse argv in
    if args.seconds <= 0.0 then die "--seconds must be positive";
    let kind =
      match List.assoc_opt args.workload workloads with
      | Some k -> k
      | None -> die "unknown workload %S (known: %s)" args.workload (String.concat ", " (List.map fst workloads))
    in
    (* A fresh directory per invocation: a server state dir left by an
       earlier run would be recovered and change the workload. *)
    let args =
      { args with workdir = Filename.concat args.workdir (Printf.sprintf "run-%d" (Unix.getpid ())) }
    in
    mkdir_p args.workdir;
    at_exit (fun () -> try rm_rf args.workdir with Sys_error _ -> ());
    let cores = Sampler.cores ~nproc:args.nproc in
    Printf.printf "workload %s, seed %d, %.0f s, trace %b\n%!" args.workload args.seed args.seconds args.trace;
    match (kind, args.trace) with
    | `Campaign (fam, jobs), false -> campaign_end_to_end fam ~jobs ~args ~cores
    | `Campaign (fam, jobs), true -> campaign_traced fam ~jobs ~args ~cores
    | `Service, false -> service_end_to_end ~args ~cores
    | `Service, true -> service_traced ~args ~cores
