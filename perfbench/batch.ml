(* Campaign workloads: batch [Campaign.run] exactly as the CLI drives it
   (journal written the way [--csv] writes one), plus the traced variant
   that drives the same per-program pipeline from here so bench-side
   spans can surround each layer's public entry point. *)

module Campaign = Scamv.Campaign
module Journal = Scamv.Journal
module Pipeline = Scamv.Pipeline
module Retry = Scamv.Retry
module Workload = Scamv_service.Workload
module Executor = Scamv_microarch.Executor
module Templates = Scamv_gen.Templates
module Gen = Scamv_gen.Gen
module Splitmix = Scamv_util.Splitmix
module Pool = Scamv_util.Pool
module Collector = Scamv_telemetry.Collector
module Metrics = Scamv_telemetry.Metrics

type family = {
  key : string;  (** reference-table key shared by every jobs level *)
  template : string;
  setup : string;
  programs : int;
  tests : int;
}

let refined_a = { key = "refined-a"; template = "A"; setup = "mct-vs-mspec"; programs = 96; tests = 12 }
let unguided_b = { key = "unguided-b"; template = "B"; setup = "mct-unguided"; programs = 24; tests = 12 }

let or_fail = function Ok v -> v | Error e -> failwith e

(* Config resolution, the CLI's path: catalogue lookups + Campaign.make. *)
let resolve fam ~seed =
  let template = or_fail (Workload.lookup_template fam.template) in
  let setup = or_fail (Workload.lookup_setup fam.setup) in
  Campaign.make
    ~name:(Workload.campaign_name ~setup:fam.setup ~template:fam.template)
    ~template ~setup ~view:(Workload.view_for fam.setup) ~programs:fam.programs
    ~tests_per_program:fam.tests ~seed ()

(* ---- output check ---- *)

(* The (program, test, path pair, verdict) sequence, one line per event,
   and how many events are failures (quarantined pair, failed or crashed
   program). *)
let event_line = function
  | Journal.Experiment e ->
    Printf.sprintf "E %d %d %d %d %s" e.Journal.program_index e.Journal.test_index
      (fst e.Journal.path_pair) (snd e.Journal.path_pair)
      (Journal.verdict_string e.Journal.verdict)
  | Journal.Quarantined q ->
    Printf.sprintf "Q %d %d %d" q.program_index (fst q.pair) (snd q.pair)
  | Journal.Program_failed f -> Printf.sprintf "F %d" f.program_index
  | Journal.Crashed c -> Printf.sprintf "C %d" c.program_index
  | Journal.Diverged d -> Printf.sprintf "D %d" d.program_index

let is_failure = function
  | Journal.Experiment _ | Journal.Diverged _ -> false
  | Journal.Quarantined _ | Journal.Program_failed _ | Journal.Crashed _ -> true

type verdicts = { experiments : int; digest : string }

let experiments events =
  List.length (List.filter (function Journal.Experiment _ -> true | _ -> false) events)

let verdicts events =
  {
    experiments = experiments events;
    digest = Digest.to_hex (Digest.string (String.concat "\n" (List.map event_line events)));
  }

(* ---- untraced rep ---- *)

type program_latency = {
  index : int;  (** program index in the campaign *)
  first_s : float;  (** dispatch -> its first journal record *)
  done_s : float;  (** dispatch -> its last journal record *)
}

type rep = {
  latency_s : float;  (** Campaign.run call -> journal closed *)
  program_latencies : program_latency list;
  cpu_s : float;
  events : Journal.event list;
}

let journal_path dir i = Filename.concat dir (Printf.sprintf "journal-%d.csv" i)

let remove_if_exists p = if Sys.file_exists p then Sys.remove p

(* One set-up, as every campaign invocation pays it; the journal file is
   created by its first record, so this touches no disk. *)
let setup fam ~seed ~path =
  let t0 = Sampler.now () in
  let cfg = resolve fam ~seed in
  let journal = Journal.create ~path () in
  (cfg, journal, Sampler.now () -. t0)

let untraced_rep fam ~jobs ~seed ~dir ~i =
  let path = journal_path dir i in
  let cfg, journal, _ = setup fam ~seed ~path in
  let c0 = Sampler.cpu () in
  let t0 = Sampler.now () in
  (* when each program's first and last record reached the journal *)
  let delivered = Hashtbl.create cfg.Campaign.programs in
  let on_record ev =
    let now = Sampler.now () and k = Journal.event_program_index ev in
    match Hashtbl.find_opt delivered k with
    | Some (first, _) -> Hashtbl.replace delivered k (first, now)
    | None -> Hashtbl.replace delivered k (now, now)
  in
  let outcome = Campaign.run ~journal ~on_record ~jobs cfg in
  Journal.close journal;
  let latency_s = Sampler.now () -. t0 in
  let cpu_s = Sampler.cpu () -. c0 in
  remove_if_exists path;
  (* A program is dispatched when its worker opens the "program" span the
     campaign records in its telemetry (track = program index + 1). *)
  let program_latencies =
    List.filter_map
      (fun (sp : Collector.span) ->
        if sp.name <> "program" then None
        else
          Option.map
            (fun (first, last) ->
              { index = sp.track - 1; first_s = first -. sp.start_s; done_s = last -. sp.start_s })
            (Hashtbl.find_opt delivered (sp.track - 1)))
      outcome.Campaign.telemetry.Collector.spans
  in
  {
    latency_s;
    program_latencies;
    cpu_s;
    events = Journal.events journal;
  }

(* ---- traced rep ----

   The per-program body below performs the same calls, in the same order
   and with the same RNG draws, as [Campaign.run] does for a campaign with
   no resume, budget, deadline, chaos or fault injection — so its verdict
   sequence must equal the untraced run's, which every traced run
   checks. *)

type program_result = {
  events : Journal.event list;
  report : Collector.report;
  spans : Trace.span list;
}

let run_program (cfg : Campaign.config) pipeline_cfg ~tracing ~program_index rng =
  let tr = Trace.create ~enabled:tracing ~owner:program_index () in
  let collector = Collector.create ~track:(program_index + 1) () in
  let events_rev = ref [] in
  let emit ev = events_rev := ev :: !events_rev in
  let name = cfg.Campaign.name in
  Collector.with_current collector (fun () ->
      Trace.span tr "core.program" (fun () ->
          try
            let { Templates.program; template_name }, rng =
              Trace.span tr "generator.gen" (fun () -> Gen.run cfg.Campaign.template rng)
            in
            let pipeline_seed, rng = Splitmix.next rng in
            let rng = ref rng in
            let session =
              Trace.span tr "pipeline.prepare" (fun () ->
                  Pipeline.prepare ~seed:pipeline_seed pipeline_cfg program)
            in
            let continue = ref true and test_index = ref 0 in
            while !continue && !test_index < cfg.Campaign.tests_per_program do
              match
                Trace.span tr "pipeline.next_case" (fun () -> Pipeline.next_test_case session)
              with
              | Pipeline.Exhausted -> continue := false
              | Pipeline.Crashed { reason } ->
                continue := false;
                emit (Journal.Crashed { campaign = name; program_index; reason })
              | Pipeline.Quarantined { pair; reason } ->
                emit (Journal.Quarantined { campaign = name; program_index; pair; reason })
              | Pipeline.Case tc ->
                let experiment =
                  {
                    Executor.program;
                    state1 = tc.Pipeline.state1;
                    state2 = tc.Pipeline.state2;
                    train = tc.Pipeline.train;
                  }
                in
                let outcome =
                  Trace.span tr "microarch.execute" (fun () ->
                      Retry.execute cfg.Campaign.retry (fun ~attempt:_ ->
                          let exp_seed, rng' = Splitmix.next !rng in
                          rng := rng';
                          Executor.run_observed ~seed:exp_seed ?faults:cfg.Campaign.faults
                            cfg.Campaign.executor experiment))
                in
                emit
                  (Journal.Experiment
                     {
                       Journal.campaign = name;
                       program_index;
                       test_index = !test_index;
                       template = template_name;
                       path_pair = tc.Pipeline.pair;
                       verdict = outcome.Retry.verdict;
                       generation_seconds = 0.0;
                       execution_seconds = 0.0;
                       retries = outcome.Retry.retries;
                       faults = outcome.Retry.faults;
                       isa = cfg.Campaign.isa;
                     });
                incr test_index
            done
          with
          | (Stack_overflow | Out_of_memory | Sys.Break) as fatal -> raise fatal
          | exn ->
            emit
              (Journal.Program_failed
                 { campaign = name; program_index; reason = Printexc.to_string exn })));
  { events = List.rev !events_rev; report = Collector.report collector; spans = Trace.spans tr }

type traced = {
  t_setup_s : float;  (** config resolution + journal creation *)
  t_run_s : float;  (** first program dispatched -> last record merged *)
  t_wall_s : float;  (** [t_run_s] + journal close *)
  t_events : Journal.event list;
  programs : program_result list;
  main_spans : Trace.span list;  (** journal writes, on the calling domain *)
  t_gc : Sampler.gc;
}

(* With [tracing = false] the loop records no bench span, so comparing it
   with a traced rep isolates the cost of tracing. *)
let traced_rep ?(tracing = true) fam ~jobs ~seed ~dir ~i =
  let path = journal_path dir i in
  let cfg, journal, t_setup_s = setup fam ~seed ~path in
  let pipeline_cfg =
    { (cfg.Campaign.pipeline cfg.Campaign.setup) with Pipeline.isa = cfg.Campaign.isa }
  in
  let streams =
    let rng = ref (Splitmix.of_seed cfg.Campaign.seed) in
    Array.init cfg.Campaign.programs (fun _ ->
        let stream, rng' = Splitmix.split !rng in
        rng := rng';
        stream)
  in
  let main = Trace.create ~enabled:tracing ~owner:(-1) () in
  let results = ref [] and events = ref [] in
  let record ev =
    Trace.span main "journal.record" (fun () -> Journal.record_event journal ev);
    events := ev :: !events
  in
  let g0 = Sampler.gc () in
  let t0 = Sampler.now () in
  Pool.run_supervised ~jobs ~tasks:cfg.Campaign.programs
    ~worker:(fun k -> run_program cfg pipeline_cfg ~tracing ~program_index:k streams.(k))
    ~consume:(fun k -> function
      | Ok r ->
        results := r :: !results;
        List.iter record r.events
      | Error { Pool.exn; _ } ->
        record
          (Journal.Crashed
             {
               campaign = cfg.Campaign.name;
               program_index = k;
               reason = "worker crashed: " ^ Printexc.to_string exn;
             }))
    ();
  let t_run_s = Sampler.now () -. t0 in
  Journal.close journal;
  let t_wall_s = Sampler.now () -. t0 in
  let t_gc = Sampler.gc_diff g0 (Sampler.gc ()) in
  remove_if_exists path;
  {
    t_setup_s;
    t_run_s;
    t_wall_s;
    t_events = List.rev !events;
    programs = List.rev !results;
    main_spans = Trace.spans main;
    t_gc;
  }
