(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 6) on the simulated platform, plus the ablation
   studies called out in DESIGN.md and bechamel micro-benchmarks.

   Usage:
     dune exec bench/main.exe                 -- everything, scaled down
     dune exec bench/main.exe -- table1       -- Table 1 only
     dune exec bench/main.exe -- fig7         -- Fig. 7 table only
     dune exec bench/main.exe -- fig3         -- Fig. 3 class counts
     dune exec bench/main.exe -- ablations    -- ablation studies
     dune exec bench/main.exe -- micro        -- bechamel micro-benches
     dune exec bench/main.exe -- --full ...   -- paper-sized campaigns

   Absolute numbers differ from the paper (simulator vs 4 Raspberry Pi
   boards over 7 days); the *shape* — which campaigns find
   counterexamples, and the refined-vs-unguided ratios of Sec. A.6.1 —
   is the reproduction target.  See EXPERIMENTS.md. *)

module Ast = Scamv_isa.Ast
module Reg = Scamv_isa.Reg
module Platform = Scamv_isa.Platform
module Executor = Scamv_microarch.Executor
module Core = Scamv_microarch.Core
module Refinement = Scamv_models.Refinement
module Catalog = Scamv_models.Catalog
module Region = Scamv_models.Region
module Templates = Scamv_gen.Templates
module Gen = Scamv_gen.Gen
module Campaign = Scamv.Campaign
module Pipeline = Scamv.Pipeline
module Stats = Scamv.Stats
module Text_table = Scamv_util.Text_table
module Exec = Scamv_symbolic.Exec
module Synth = Scamv_relation.Synth
module Solver = Scamv_smt.Solver
module T = Scamv_smt.Term

let platform = Platform.cortex_a53
let region = Region.paper_unaligned platform
let region_pa = Region.paper_page_aligned platform

(* Every benchmark here drives the AArch64 side; unwrap template draws
   once instead of threading the guest-program sum through the tables. *)
let arm_draw ~seed template =
  match (Gen.generate ~seed template).Templates.program with
  | Scamv_arch.Isa.Aarch64_program p -> p
  | Scamv_arch.Isa.Riscv_program _ ->
    invalid_arg "bench: AArch64 template expected"

let view_of_region (r : Region.t) =
  Executor.Region { first_set = r.Region.first_set; last_set = r.Region.last_set }

(* ------------------------------------------------------------------ *)
(* Campaign catalogue: one row per column of Table 1 / Fig. 7           *)
(* ------------------------------------------------------------------ *)

type row_spec = {
  id : string;
  template : Templates.t Gen.t;
  setup : Refinement.t;
  view : Executor.view;
  programs : int;  (* scaled-down default *)
  full_programs : int;  (* the paper's count *)
  tests : int;
  paper : string;  (* the paper's counterexample / experiments summary *)
}

let table1_rows =
  [
    {
      id = "Mpart unguided (Mpc)";
      template = Templates.stride;
      setup = Refinement.mpart_unguided platform region;
      view = view_of_region region;
      programs = 30;
      full_programs = 450;
      tests = 30;
      paper = "21 cx / 13752 exp";
    };
    {
      id = "Mpart + Mpart' (Mpc&Mline)";
      template = Templates.stride;
      setup = Refinement.mpart_vs_mpart' platform region;
      view = view_of_region region;
      programs = 30;
      full_programs = 450;
      tests = 30;
      paper = "447 cx / 18000 exp";
    };
    {
      id = "Mpart page-aligned unguided";
      template = Templates.stride;
      setup = Refinement.mpart_unguided platform region_pa;
      view = view_of_region region_pa;
      programs = 30;
      full_programs = 425;
      tests = 30;
      paper = "0 cx / 12860 exp";
    };
    {
      id = "Mpart page-aligned + Mpart'";
      template = Templates.stride;
      setup = Refinement.mpart_vs_mpart' platform region_pa;
      view = view_of_region region_pa;
      programs = 30;
      full_programs = 425;
      tests = 30;
      paper = "0 cx / 17000 exp";
    };
    {
      id = "Mct template A unguided";
      template = Templates.template_a;
      setup = Refinement.mct_unguided;
      view = Executor.Full_cache;
      programs = 30;
      full_programs = 655;
      tests = 30;
      paper = "6 cx / 26200 exp";
    };
    {
      id = "Mct template A + Mspec";
      template = Templates.template_a;
      setup = Refinement.mct_vs_mspec ();
      view = Executor.Full_cache;
      programs = 30;
      full_programs = 652;
      tests = 30;
      paper = "12462 cx / 25737 exp";
    };
    {
      id = "Mct template B unguided";
      template = Templates.template_b;
      setup = Refinement.mct_unguided;
      view = Executor.Full_cache;
      programs = 30;
      full_programs = 942;
      tests = 30;
      paper = "0 cx / 37680 exp";
    };
    {
      id = "Mct template B + Mspec";
      template = Templates.template_b;
      setup = Refinement.mct_vs_mspec ();
      view = Executor.Full_cache;
      programs = 30;
      full_programs = 941;
      tests = 30;
      paper = "4838 cx / 37640 exp";
    };
  ]

let fig7_rows =
  [
    {
      id = "Mct template C unguided";
      template = Templates.template_c;
      setup = Refinement.mct_unguided;
      view = Executor.Full_cache;
      programs = 8;
      full_programs = 8;
      tests = 100;
      paper = "0 cx / 8000 exp";
    };
    {
      id = "Mct template C + Mspec";
      template = Templates.template_c;
      setup = Refinement.mct_vs_mspec ();
      view = Executor.Full_cache;
      programs = 8;
      full_programs = 8;
      tests = 100;
      paper = "3423 cx / 8000 exp";
    };
    {
      id = "Mspec1 template C + Mspec";
      template = Templates.template_c;
      setup = Refinement.mspec1_vs_mspec ();
      view = Executor.Full_cache;
      programs = 8;
      full_programs = 8;
      tests = 100;
      paper = "0 cx / 8000 exp";
    };
    {
      id = "Mspec1 template B + Mspec";
      template = Templates.template_b;
      setup = Refinement.mspec1_vs_mspec ();
      view = Executor.Full_cache;
      programs = 30;
      full_programs = 915;
      tests = 30;
      paper = "206 cx / 36600 exp";
    };
    {
      id = "Mct template D + Mspec'";
      template = Templates.template_d;
      setup = Refinement.mct_vs_mspec_straight_line ();
      view = Executor.Full_cache;
      programs = 30;
      full_programs = 478;
      tests = 30;
      paper = "0 cx / 47800 exp";
    };
  ]

let run_rows ~full ~title rows =
  Format.printf "@.## %s (%s campaigns)@.@.%!" title
    (if full then "paper-sized" else "scaled-down");
  let measured =
    List.map
      (fun spec ->
        let programs = if full then spec.full_programs else spec.programs in
        let cfg =
          Campaign.make ~name:spec.id ~template:spec.template ~setup:spec.setup
            ~view:spec.view ~programs ~tests_per_program:spec.tests ()
        in
        let outcome = Campaign.run cfg in
        (spec, outcome))
      rows
  in
  let rows_txt =
    List.map
      (fun (spec, (outcome : Campaign.outcome)) ->
        Stats.row ~name:spec.id outcome.Campaign.stats @ [ spec.paper ])
      measured
  in
  print_string
    (Text_table.render ~header:(Stats.header @ [ "paper (full scale)" ]) ~rows:rows_txt);
  measured

(* ------------------------------------------------------------------ *)
(* Fig. 3: partitioning of the input space                             *)
(* ------------------------------------------------------------------ *)

let x = Reg.x

let running_example =
  [|
    Ast.Ldr (x 2, { Ast.base = x 0; offset = Ast.Imm 0L; scale = 0 });
    Ast.Add (x 1, x 1, Ast.Imm 1L);
    Ast.Cmp (x 0, Ast.Reg (x 1));
    Ast.B_cond (Ast.Hs, 5);
    Ast.Ldr (x 3, { Ast.base = x 2; offset = Ast.Imm 0L; scale = 0 });
  |]

let fig3 () =
  Format.printf "@.## Fig. 3: equivalence classes of the running example@.@.";
  let module Model = Scamv_smt.Model in
  let module Obs = Scamv_bir.Obs in
  let module Vars = Scamv_bir.Vars in
  let domain =
    List.concat_map
      (fun x0 ->
        List.concat_map
          (fun x1 ->
            List.map (fun c -> (Int64.of_int x0, Int64.of_int x1, Int64.of_int c)) [ 0; 64 ])
          (List.init 8 Fun.id))
      (List.init 8 Fun.id)
  in
  let model_of (x0, x1, cell) =
    Model.empty
    |> fun m ->
    Model.add_var m (Vars.reg (x 0)) (Model.Bv (x0, 64))
    |> fun m ->
    Model.add_var m (Vars.reg (x 1)) (Model.Bv (x1, 64))
    |> fun m -> Model.add_mem_cell m Vars.mem_name ~addr:x0 ~value:cell
  in
  let count bir keep =
    let leaves = Exec.execute bir in
    let table = Hashtbl.create 64 in
    List.iter
      (fun input ->
        let model = model_of input in
        let leaf =
          List.find
            (fun (l : Exec.leaf) -> Scamv_smt.Eval.eval_bool model l.Exec.path_cond)
            leaves
        in
        let trace = Exec.concrete_obs model leaf |> List.filter (fun (t, _, _) -> keep t) in
        Hashtbl.replace table trace ())
      domain;
    Hashtbl.length table
  in
  let pc = count (Scamv_models.Model.annotate Catalog.mpc running_example) (fun t -> t = Obs.Base) in
  let ct = count (Scamv_models.Model.annotate Catalog.mct running_example) (fun t -> t = Obs.Base) in
  let spec =
    count
      (Refinement.annotate (Refinement.mct_vs_mspec ()) running_example)
      (fun t -> t = Obs.Base || t = Obs.Refined)
  in
  print_string
    (Text_table.render
       ~header:[ "panel"; "model"; "classes over 128 inputs" ]
       ~rows:
         [
           [ "(b) support"; "Mpc"; string_of_int pc ];
           [ "(a) under validation"; "Mct"; string_of_int ct ];
           [ "(c) refined"; "Mspec"; string_of_int spec ];
         ])

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let ablation_projection () =
  (* Sec. 5.1: one symbolic execution with tagged observations vs running
     the pipeline separately for M1 and M2. *)
  Format.printf "@.## Ablation: single-run projection vs naive two-run refinement@.@.";
  let programs =
    List.init 20 (fun i ->
        arm_draw ~seed:(Int64.of_int (i + 1)) Templates.template_b)
  in
  let setup = Refinement.mct_vs_mspec () in
  let (), combined =
    time_it (fun () ->
        List.iter (fun p -> ignore (Exec.execute (Refinement.annotate setup p))) programs)
  in
  let (), naive =
    time_it (fun () ->
        List.iter
          (fun p ->
            ignore (Exec.execute (Scamv_models.Model.annotate Catalog.mct p));
            ignore (Exec.execute (Refinement.annotate setup p)))
          programs)
  in
  print_string
    (Text_table.render
       ~header:[ "strategy"; "symbolic-execution time (20 programs)" ]
       ~rows:
         [
           [ "tagged single run (Sec. 5.1)"; Printf.sprintf "%.4fs" combined ];
           [ "naive M1 + M2 runs"; Printf.sprintf "%.4fs" naive ];
           [ "saving"; Printf.sprintf "%.1f%%" (100. *. (1. -. (combined /. naive))) ];
         ])

let ablation_path_split () =
  (* Sec. 5.4: per-path-pair relations vs the monolithic Eq. 1 formula. *)
  Format.printf "@.## Ablation: per-path-pair relations vs monolithic Eq. 1@.@.";
  let program = arm_draw ~seed:3L Templates.template_b in
  let setup = Refinement.mct_unguided in
  let bir = Refinement.annotate setup program in
  let leaves = Exec.execute bir in
  let cfg = { Synth.platform; require_refined_difference = false } in
  let pairs = Synth.compatible_pairs leaves in
  let (), split_time =
    time_it (fun () ->
        List.iter
          (fun pair ->
            match Synth.pair_relation cfg leaves pair with
            | None -> ()
            | Some r ->
              let s = Solver.make_session r.Synth.assertions in
              for _ = 1 to 5 do
                ignore (Solver.next_model s)
              done)
          pairs)
  in
  let (), mono_time =
    time_it (fun () ->
        let full = Synth.full_equivalence cfg leaves in
        let s = Solver.make_session [ full ] in
        for _ = 1 to 5 * List.length pairs do
          ignore (Solver.next_model s)
        done)
  in
  print_string
    (Text_table.render
       ~header:[ "strategy"; "time for equal model count" ]
       ~rows:
         [
           [ "per-path-pair split (Sec. 5.4)"; Printf.sprintf "%.4fs" split_time ];
           [ "monolithic Eq. 1"; Printf.sprintf "%.4fs" mono_time ];
         ]);
  Format.printf
    "(note: the monolithic relation omits the per-path platform constraints@.\
    \ and provides no path-pair coverage - its models may all come from one@.\
    \ path pair, which is exactly what the round-robin split prevents)@."

let ablation_prefetch_threshold () =
  Format.printf "@.## Ablation: prefetcher trigger threshold vs Mpart violations@.@.";
  let rows =
    List.map
      (fun threshold ->
        let setup = Refinement.mpart_vs_mpart' platform region in
        let cfg =
          Campaign.make
            ~name:(Printf.sprintf "threshold %d" threshold)
            ~template:Templates.stride ~setup ~view:(view_of_region region) ~programs:15
            ~tests_per_program:20 ()
        in
        let cfg =
          {
            cfg with
            Campaign.executor =
              {
                cfg.Campaign.executor with
                Executor.core =
                  { cfg.Campaign.executor.Executor.core with Core.prefetch_threshold = threshold };
              };
          }
        in
        let s = (Campaign.run cfg).Campaign.stats in
        [
          string_of_int threshold;
          string_of_int s.Stats.counterexamples;
          string_of_int s.Stats.experiments;
        ])
      [ 2; 3; 4; 5; 6 ]
  in
  print_string
    (Text_table.render
       ~header:[ "prefetch threshold (loads)"; "counterexamples"; "experiments" ]
       ~rows)

let ablation_spec_window () =
  Format.printf "@.## Ablation: speculation window vs Mct/template-C violations@.@.";
  let rows =
    List.map
      (fun window ->
        let setup = Refinement.mct_vs_mspec () in
        let cfg =
          Campaign.make
            ~name:(Printf.sprintf "window %d" window)
            ~template:Templates.template_c ~setup ~view:Executor.Full_cache ~programs:8
            ~tests_per_program:25 ()
        in
        let cfg =
          {
            cfg with
            Campaign.executor =
              {
                cfg.Campaign.executor with
                Executor.core =
                  { cfg.Campaign.executor.Executor.core with Core.spec_window = window };
              };
          }
        in
        let s = (Campaign.run cfg).Campaign.stats in
        [
          string_of_int window;
          string_of_int s.Stats.counterexamples;
          string_of_int s.Stats.experiments;
        ])
      [ 0; 1; 2; 4; 8; 16 ]
  in
  print_string
    (Text_table.render
       ~header:[ "speculation window (instrs)"; "counterexamples"; "experiments" ]
       ~rows)

let ablation_forwarding () =
  (* Sec. 6.5: the tailored model Mspec1 is core-specific.  On a core with
     speculative forwarding (classic Spectre-PHT microarchitecture) the
     dependent second load issues, so Mspec1 stops being sound. *)
  Format.printf "@.## Ablation: speculative forwarding vs Mspec1 soundness (template C)@.@.";
  let rows =
    List.map
      (fun (name, core_cfg) ->
        let cfg =
          Campaign.make ~name ~template:Templates.template_c
            ~setup:(Refinement.mspec1_vs_mspec ()) ~view:Executor.Full_cache ~programs:8
            ~tests_per_program:25 ()
        in
        let cfg =
          { cfg with Campaign.executor = { cfg.Campaign.executor with Executor.core = core_cfg } }
        in
        let s = (Campaign.run cfg).Campaign.stats in
        [ name; string_of_int s.Stats.counterexamples; string_of_int s.Stats.experiments ])
      [ ("Cortex-A53 (no forwarding)", Core.cortex_a53); ("out-of-order core", Core.out_of_order) ]
  in
  print_string
    (Text_table.render ~header:[ "core"; "counterexamples"; "experiments" ] ~rows)

let ablations () =
  ablation_projection ();
  ablation_path_split ();
  ablation_prefetch_threshold ();
  ablation_spec_window ();
  ablation_forwarding ()

(* ------------------------------------------------------------------ *)
(* A.6.1 checklist                                                     *)
(* ------------------------------------------------------------------ *)

let checklist table1 fig7 =
  Format.printf "@.## Sec. A.6.1 evaluation checklist (refined vs unguided)@.@.";
  let find id rows =
    List.find_map
      (fun (spec, (o : Campaign.outcome)) ->
        if spec.id = id then Some o.Campaign.stats else None)
      rows
    |> Option.get
  in
  let ratio a b =
    if b = 0 then "inf" else Printf.sprintf "%.1fx" (float_of_int a /. float_of_int b)
  in
  let mpart_u = find "Mpart unguided (Mpc)" table1
  and mpart_r = find "Mpart + Mpart' (Mpc&Mline)" table1
  and a_u = find "Mct template A unguided" table1
  and a_r = find "Mct template A + Mspec" table1
  and b_u = find "Mct template B unguided" table1
  and b_r = find "Mct template B + Mspec" table1
  and c_u = find "Mct template C unguided" fig7
  and c_r = find "Mct template C + Mspec" fig7 in
  let rows =
    [
      [
        "Mpart: counterexamples, refined vs unguided";
        ratio mpart_r.Stats.counterexamples mpart_u.Stats.counterexamples;
        "~20x";
      ];
      [
        "Mpart: programs w/ counterexample";
        ratio mpart_r.Stats.programs_with_counterexample
          mpart_u.Stats.programs_with_counterexample;
        "~4x";
      ];
      [
        "Mct A: counterexamples, refined vs unguided";
        ratio a_r.Stats.counterexamples a_u.Stats.counterexamples;
        "~2000x";
      ];
      [
        "Mct B: refined finds counterexamples, unguided none";
        Printf.sprintf "%d vs %d" b_r.Stats.counterexamples b_u.Stats.counterexamples;
        "4838 vs 0";
      ];
      [
        "Mct C: refined finds counterexamples, unguided none";
        Printf.sprintf "%d vs %d" c_r.Stats.counterexamples c_u.Stats.counterexamples;
        "3423 vs 0";
      ];
    ]
  in
  print_string (Text_table.render ~header:[ "check"; "measured"; "paper" ] ~rows)

(* ------------------------------------------------------------------ *)
(* Extensions: model repair and the other side channels                 *)
(* ------------------------------------------------------------------ *)

let repair () =
  Format.printf "@.## Extension: model repair (Sec. 8 future work)@.@.";
  let rows =
    List.map
      (fun (name, template, programs) ->
        let o = Scamv.Repair.run ~programs ~tests_per_program:15 ~template () in
        let trail =
          String.concat ", "
            (List.map
               (fun (s : Scamv.Repair.step) ->
                 Printf.sprintf "k=%d:%d cx"
                   s.Scamv.Repair.tried.Scamv.Repair.observed_transient_loads
                   s.Scamv.Repair.stats.Stats.counterexamples)
               o.Scamv.Repair.steps)
        in
        let result =
          match o.Scamv.Repair.repaired with
          | Some c -> Printf.sprintf "k = %d" c.Scamv.Repair.observed_transient_loads
          | None -> "not repaired"
        in
        [ name; trail; result ])
      [
        ("template C (dependent loads)", Templates.template_c, 8);
        ("template B (independent loads)", Templates.template_b, 40);
        ("template A (guarded load)", Templates.template_a, 20);
      ]
  in
  print_string
    (Text_table.render ~header:[ "workload"; "validation trail"; "repaired model" ] ~rows)

let channels () =
  Format.printf "@.## Extension: channel-relative soundness (TLB / timing)@.@.";
  let run name template setup view =
    let cfg =
      Campaign.make ~name ~template ~setup ~view ~programs:10 ~tests_per_program:20
        ~seed:5L ()
    in
    let s = (Campaign.run cfg).Campaign.stats in
    [ name; string_of_int s.Stats.counterexamples; string_of_int s.Stats.experiments ]
  in
  let two_reads =
    Gen.return
      {
        Templates.template_name = "two reads";
        program =
          Scamv_arch.Isa.Aarch64_program
            [|
              Ast.Ldr (x 1, { Ast.base = x 0; offset = Ast.Imm 0L; scale = 0 });
              Ast.Ldr (x 2, { Ast.base = x 3; offset = Ast.Imm 0L; scale = 0 });
            |];
      }
  in
  let rows =
    [
      run "Mpage vs TLB attacker (Mline refined)" Templates.stride
        (Refinement.mpage_vs_mline platform) Executor.Tlb_state;
      run "Mpage vs cache attacker (Mline refined)" Templates.stride
        (Refinement.mpage_vs_mline platform) Executor.Full_cache;
      run "Mct vs TLB attacker (unguided)" Templates.stride Refinement.mct_unguided
        Executor.Tlb_state;
      run "Mpc vs timing attacker (Mline refined)" two_reads
        (Refinement.refine_with_model ~base:Catalog.mpc ~refined:(Catalog.mline platform) ())
        Executor.Total_time;
      run "Mct vs timing attacker (unguided)" two_reads Refinement.mct_unguided
        Executor.Total_time;
    ]
  in
  print_string
    (Text_table.render ~header:[ "validation"; "counterexamples"; "experiments" ] ~rows)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  Format.printf "@.## Bechamel micro-benchmarks (one per table/figure + primitives)@.@.%!";
  let open Bechamel in
  let program_a = (Gen.generate ~seed:7L Templates.template_a).Templates.program in
  let program_c = (Gen.generate ~seed:7L Templates.template_c).Templates.program in
  let stride = (Gen.generate ~seed:7L Templates.stride).Templates.program in
  (* Table 1, cache-coloring columns: one refinement-guided test case. *)
  let t_table1_mpart =
    let setup = Refinement.mpart_vs_mpart' platform region in
    let cfg = Pipeline.default_config setup in
    Test.make ~name:"table1 mpart-refined test case"
      (Staged.stage (fun () ->
           let s = Pipeline.prepare cfg stride in
           ignore (Pipeline.next_test_case s)))
  in
  (* Table 1, speculation columns: one refinement-guided test case. *)
  let t_table1_mct =
    let setup = Refinement.mct_vs_mspec () in
    let cfg = Pipeline.default_config setup in
    Test.make ~name:"table1 mct-A-refined test case"
      (Staged.stage (fun () ->
           let s = Pipeline.prepare cfg program_a in
           ignore (Pipeline.next_test_case s)))
  in
  (* Fig. 7: Mspec1 preparation on template C. *)
  let t_fig7 =
    let setup = Refinement.mspec1_vs_mspec () in
    let cfg = Pipeline.default_config setup in
    Test.make ~name:"fig7 mspec1-C preparation"
      (Staged.stage (fun () -> ignore (Pipeline.prepare cfg program_c)))
  in
  (* Fig. 3: symbolic execution of the instrumented running example. *)
  let t_fig3 =
    let bir = Refinement.annotate (Refinement.mct_vs_mspec ()) running_example in
    Test.make ~name:"fig3 symbolic execution" (Staged.stage (fun () -> ignore (Exec.execute bir)))
  in
  (* Fig. 6: one full experiment (training + 2 x 10 measured runs). *)
  let t_fig6 =
    let setup = Refinement.mct_vs_mspec () in
    let cfg = Pipeline.default_config setup in
    let session = Pipeline.prepare cfg program_a in
    let tc =
      match Pipeline.next_test_case session with
      | Pipeline.Case tc -> tc
      | Pipeline.Exhausted | Pipeline.Quarantined _ | Pipeline.Crashed _ ->
        failwith "bench: expected a test case"
    in
    let experiment =
      {
        Executor.program = program_a;
        state1 = tc.Pipeline.state1;
        state2 = tc.Pipeline.state2;
        train = tc.Pipeline.train;
      }
    in
    Test.make ~name:"fig6 one experiment on the simulator"
      (Staged.stage (fun () -> ignore (Executor.run (Executor.default_config ()) experiment)))
  in
  (* Substrate primitives. *)
  let t_sat =
    Test.make ~name:"primitive SMT solve (64-bit add relation)"
      (Staged.stage (fun () ->
           let a = T.bv_var "a" 64 and b = T.bv_var "b" 64 in
           ignore (Solver.solve [ T.eq (T.add a b) (T.bv_const 12345L 64); T.ult a b ])))
  in
  let t_sim =
    let core = Core.create Core.cortex_a53 in
    let stride_arm = arm_draw ~seed:7L Templates.stride in
    Test.make ~name:"primitive simulator run (stride)"
      (Staged.stage (fun () ->
           Core.reset_cache core;
           let m = Scamv_isa.Machine.create () in
           Scamv_isa.Machine.set_reg m (Reg.x 12) platform.Platform.mem_base;
           ignore (Core.run core stride_arm m)))
  in
  let tests =
    Test.make_grouped ~name:"scamv" ~fmt:"%s %s"
      [ t_table1_mpart; t_table1_mct; t_fig7; t_fig3; t_fig6; t_sat; t_sim ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns = match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> Float.nan in
      rows := [ name; Printf.sprintf "%11.0f ns" ns ] :: !rows)
    results;
  print_string
    (Text_table.render ~header:[ "benchmark"; "time per run" ] ~rows:(List.sort compare !rows))

(* ------------------------------------------------------------------ *)
(* Multicore campaign benchmark (BENCH_campaign.json)                  *)
(* ------------------------------------------------------------------ *)

module Json = Scamv_util.Json
module Metrics = Scamv_telemetry.Metrics
module Collector = Scamv_telemetry.Collector

(* ------------------------------------------------------------------ *)
(* Solver microbenchmark (blast / solve / enumerate in isolation)      *)
(* ------------------------------------------------------------------ *)

(* Times the three phases of the generation hot path separately on a
   fixed seeded workload (every relation of one template-A program under
   Mct-vs-Mspec):

   - blast: session construction only — array elimination, Tseitin
     blasting, tracked-input allocation — once with a private blast graph
     per session (the pre-shared-cache behaviour) and once with one graph
     shared across all sessions (what the pipeline does per program);
   - first_model: the initial SAT solve + lexicographic minimization of
     each session;
   - enumerate: draws under accumulated blocking clauses.

   The workload is deterministic (fixed generator and session seeds); the
   times land in BENCH_campaign.json next to the campaign numbers so the
   perf trajectory of the solver itself is tracked, not just end-to-end
   campaign wall time.

   Every phase is run [reps] times and each rep is timed on its own: the
   JSON carries the per-rep minimum and median next to the legacy
   all-reps sum (the [*_seconds] keys keep their historical scale so
   committed baselines stay comparable).  The minimum is the
   least-noise estimate of the work itself; the median guards against
   reading too much into one quiet scheduler tick. *)
let summarize_reps times =
  let sorted = Array.copy times in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let median =
    if n land 1 = 1 then sorted.(n / 2)
    else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.
  in
  (Array.fold_left ( +. ) 0. times, sorted.(0), median)

let solver_microbench () =
  let reps = 3 in
  let draws = 4 in
  let setup = Refinement.mct_vs_mspec () in
  let scfg = { Synth.platform; require_refined_difference = true } in
  (* One relation group per seeded program; the shared-graph variant shares
     a blast graph *within* each group, exactly as the pipeline does. *)
  let groups =
    List.map
      (fun seed ->
        let program = arm_draw ~seed Templates.template_a in
        let leaves = Exec.execute (Refinement.annotate setup program) in
        let prepared = Synth.prepare scfg leaves in
        List.filter_map
          (Synth.pair_relation_prepared prepared)
          (Synth.compatible_pairs leaves))
      [ 11L; 12L; 13L; 14L; 15L; 16L ]
  in
  let n_relations = List.length (List.concat groups) in
  let make ?graph (r : Synth.pair_relation) =
    Solver.make_session ~seed:1L ?graph r.Synth.assertions
  in
  let rep_times f = Array.init reps (fun rep -> snd (time_it (fun () -> f rep))) in
  let blast_private =
    rep_times (fun _ -> List.iter (List.iter (fun r -> ignore (make r))) groups)
  in
  (* Allocation is read beside the times: minor words per clause emitted
     while blasting (shared graph) and per model enumerated.  These are
     measurements for the report, not gates. *)
  let clauses = ref 0 in
  let blast_words0 = Gc.minor_words () in
  let blast_shared =
    rep_times (fun _ ->
        List.iter
          (fun group ->
            let graph = Scamv_smt.Blaster.new_graph () in
            List.iter
              (fun r -> clauses := !clauses + Solver.clause_count (make ~graph r))
              group)
          groups)
  in
  let blast_words = Gc.minor_words () -. blast_words0 in
  let sessions () =
    List.concat_map
      (fun group ->
        let graph = Scamv_smt.Blaster.new_graph () in
        List.map (make ~graph) group)
      groups
  in
  let batches = Array.init reps (fun _ -> sessions ()) in
  let first_model =
    rep_times (fun rep ->
        List.iter (fun s -> ignore (Solver.next_model s)) batches.(rep))
  in
  let models = ref 0 in
  let enumerate_words0 = Gc.minor_words () in
  let enumerate =
    rep_times (fun rep ->
        List.iter
          (fun s ->
            for _ = 1 to draws do
              match Solver.next_model s with
              | Solver.Model _ -> incr models
              | Solver.Exhausted | Solver.Budget_exceeded -> ()
            done)
          batches.(rep))
  in
  let enumerate_words = Gc.minor_words () -. enumerate_words0 in
  let per n words = if n > 0 then words /. float_of_int n else 0. in
  let words_per_clause = per !clauses blast_words in
  let words_per_model = per !models enumerate_words in
  Format.printf "@.## Solver microbenchmark (%d relations x %d reps)@.@."
    n_relations reps;
  let print_phase label times =
    let sum, mn, md = summarize_reps times in
    Format.printf "%s %.4fs total (min %.4f / median %.4f per rep)@." label sum
      mn md
  in
  print_phase "blast (private graph per session):" blast_private;
  print_phase "blast (shared graph per program): " blast_shared;
  print_phase "first model + minimize:           " first_model;
  print_phase
    (Printf.sprintf "enumerate (%d draws/session):     " draws)
    enumerate;
  Format.printf "models enumerated: %d@." !models;
  Format.printf "minor words per emitted clause (blast, shared graph): %.1f@."
    words_per_clause;
  Format.printf "minor words per enumerated model: %.0f@.%!" words_per_model;
  let phase_fields name times =
    let sum, mn, md = summarize_reps times in
    [
      (name ^ "_seconds", Json.Num sum);
      (name ^ "_min_seconds", Json.Num mn);
      (name ^ "_median_seconds", Json.Num md);
    ]
  in
  Json.Obj
    ([
       ("relations", Json.Num (float_of_int n_relations));
       ("reps", Json.Num (float_of_int reps));
       ("draws_per_session", Json.Num (float_of_int draws));
     ]
    @ phase_fields "blast_private_graph" blast_private
    @ phase_fields "blast_shared_graph" blast_shared
    @ phase_fields "first_model" first_model
    @ phase_fields "enumerate" enumerate
    @ [
        ("models_enumerated", Json.Num (float_of_int !models));
        ("clauses_emitted", Json.Num (float_of_int !clauses));
        ("minor_words_per_clause", Json.Num words_per_clause);
        ("minor_words_per_model", Json.Num words_per_model);
      ])

(* ------------------------------------------------------------------ *)
(* Portfolio race microbenchmark                                       *)
(* ------------------------------------------------------------------ *)

module Pool = Scamv_util.Pool

(* Deterministic portfolio race: every relation of two seeded programs is
   solved one-shot under the first K portfolio configurations with a
   tight per-call conflict budget.  The winner of a race is the
   lowest-ranked configuration that answers within the budget — rank
   order, not wall-clock order — and a loser is bounded by the budget
   rather than cancelled, so each verdict is a pure function of the
   query and identical whether the K sessions run sequentially or spread
   over a Domain pool.  The harness runs the race both ways, times each,
   and fails loudly if any verdict differs. *)
let portfolio_microbench () =
  let configs = 4 in
  let conflicts = 16 in
  let budget = Scamv_smt.Sat.budget ~conflicts () in
  let setup = Refinement.mct_vs_mspec () in
  let scfg = { Synth.platform; require_refined_difference = true } in
  let relations =
    List.concat_map
      (fun seed ->
        let program = arm_draw ~seed Templates.template_a in
        let leaves = Exec.execute (Refinement.annotate setup program) in
        let prepared = Synth.prepare scfg leaves in
        List.filter_map
          (Synth.pair_relation_prepared prepared)
          (Synth.compatible_pairs leaves))
      [ 11L; 12L ]
    |> Array.of_list
  in
  let n = Array.length relations in
  (* 0 = budget exceeded, 1 = exhausted (unsat), 2 = model.  Each entrant
     builds a private session (own blast graph) so pool domains share
     nothing mutable; Synth relations are immutable inputs. *)
  let entrant i =
    let r = relations.(i / configs) in
    let pc = Scamv_smt.Portfolio.config (i mod configs) in
    let seed = Scamv_smt.Portfolio.seed_for pc 1L in
    let s =
      Solver.make_session
        ~default_phase:pc.Scamv_smt.Portfolio.default_phase
        ~restart_base:pc.Scamv_smt.Portfolio.restart_base ~budget ~seed
        r.Synth.assertions
    in
    match Solver.next_model s with
    | Solver.Model _ -> 2
    | Solver.Exhausted -> 1
    | Solver.Budget_exceeded -> 0
  in
  let race jobs =
    let tags = Array.make (n * configs) 0 in
    Pool.run_supervised ~jobs ~tasks:(n * configs) ~worker:entrant
      ~consume:(fun i -> function
        | Ok tag -> tags.(i) <- tag
        | Error { Pool.exn; backtrace } -> Printexc.raise_with_backtrace exn backtrace)
      ();
    Array.init n (fun r ->
        let rec first rank =
          if rank >= configs then None
          else if tags.((r * configs) + rank) > 0 then Some rank
          else first (rank + 1)
        in
        first 0)
  in
  let sequential_winners, sequential_seconds = time_it (fun () -> race 1) in
  let parallel_winners, parallel_seconds =
    time_it (fun () -> race configs)
  in
  if sequential_winners <> parallel_winners then begin
    prerr_endline
      "FAIL: portfolio race winners differ between sequential and pooled runs";
    exit 1
  end;
  let wins = Array.make configs 0 in
  let unresolved = ref 0 in
  Array.iter
    (function Some rank -> wins.(rank) <- wins.(rank) + 1 | None -> incr unresolved)
    sequential_winners;
  Format.printf
    "@.## Portfolio race (%d relations x %d configs, %d-conflict budget)@.@.\
     sequential: %.4fs   pooled: %.4fs@.\
     wins by rank: %s   unresolved: %d@.%!"
    n configs conflicts sequential_seconds parallel_seconds
    (String.concat " "
       (Array.to_list (Array.mapi (fun i w -> Printf.sprintf "%d:%d" i w) wins)))
    !unresolved;
  Json.Obj
    [
      ("configs", Json.Num (float_of_int configs));
      ("relations", Json.Num (float_of_int n));
      ("budget_conflicts", Json.Num (float_of_int conflicts));
      ("sequential_seconds", Json.Num sequential_seconds);
      ("parallel_seconds", Json.Num parallel_seconds);
      ( "wins",
        Json.Obj
          (Array.to_list
             (Array.mapi
                (fun i w -> (string_of_int i, Json.Num (float_of_int w)))
                wins)
          @ [ ("none", Json.Num (float_of_int !unresolved)) ]) );
      ("deterministic_across_jobs", Json.Bool true);
    ]

(* ------------------------------------------------------------------ *)
(* Incremental-vs-fresh identity check (`make solver-smoke`)           *)
(* ------------------------------------------------------------------ *)

(* The pipeline asserts a refined relation in two increments — the
   candidate part at session creation, the refinement part through
   [Solver.extend] on the same live session.  Because non-diversified
   enumeration is canonical (every draw is the lexicographically minimal
   unblocked model, a property of the formula alone), the staged session
   must produce byte-for-byte the same model sequence as a fresh session
   asserting everything at once.  This check enumerates both ways over a
   seeded workload and exits nonzero on the first divergence, so `make
   solver-smoke` / CI catches an unsound reuse of solver state. *)
let solver_identity () =
  let draws = 5 in
  let setup = Refinement.mct_vs_mspec () in
  let scfg = { Synth.platform; require_refined_difference = true } in
  let checked = ref 0 in
  List.iter
    (fun seed ->
      let program = arm_draw ~seed Templates.template_a in
      let leaves = Exec.execute (Refinement.annotate setup program) in
      let prepared = Synth.prepare scfg leaves in
      List.iter
        (fun pair ->
          match Synth.pair_relation_prepared prepared pair with
          | None -> ()
          | Some r ->
            let fresh = Solver.make_session ~seed:1L r.Synth.assertions in
            let staged =
              let s =
                Solver.make_session ~seed:1L r.Synth.candidate_assertions
              in
              Solver.extend s r.Synth.refinement_assertions
            in
            let show m = Format.asprintf "%a" Scamv_smt.Model.pp m in
            let next s =
              match Solver.next_model s with
              | Solver.Model m -> Some (show m)
              | Solver.Exhausted -> None
              | Solver.Budget_exceeded -> assert false (* no budget set *)
            in
            for draw = 1 to draws do
              let a = next fresh and b = next staged in
              if a <> b then begin
                Printf.eprintf
                  "FAIL: seed %Ld pair (%d,%d) draw %d: staged session \
                   diverges from fresh session\n"
                  seed (fst pair) (snd pair) draw;
                exit 1
              end;
              if a <> None then incr checked
            done)
        (Synth.compatible_pairs leaves))
    [ 11L; 12L; 13L ];
  Printf.printf
    "OK: incremental (extend) sessions enumerate identically to fresh \
     sessions (%d models compared)\n"
    !checked

(* One fixed, seeded campaign timed at jobs in {1, 2, 4}.  The workload is
   identical across job counts (same seed, same per-program RNG streams),
   so wall-clock ratios are honest speedups and every count must agree —
   the harness cross-checks that and records the verdict in the JSON. *)
let bench_campaign ~smoke ~out () =
  let programs = if smoke then 4 else 24 in
  let tests = if smoke then 3 else 12 in
  let seed = 2021L in
  let name = "bench mct-vs-mspec template A" in
  let make_cfg () =
    Campaign.make ~name ~template:Templates.template_a
      ~setup:(Refinement.mct_vs_mspec ()) ~view:Executor.Full_cache ~programs
      ~tests_per_program:tests ~seed ()
  in
  let job_counts = [ 1; 2; 4 ] in
  Format.printf "@.## Multicore campaign benchmark (%s: %d programs x %d tests)@.@.%!"
    (if smoke then "smoke" else "full")
    programs tests;
  let runs =
    List.map
      (fun jobs ->
        let cfg = make_cfg () in
        let t0 = Unix.gettimeofday () in
        let outcome = Campaign.run ~jobs cfg in
        let wall = Unix.gettimeofday () -. t0 in
        (* Solver work and phase totals come from the campaign's merged
           telemetry registry (the SAT solver flushes per-query deltas into
           it), not from any process-global counter, so each run's numbers
           are exactly its own even though the runs share the process. *)
        let m = outcome.Campaign.telemetry.Collector.metrics in
        let conflicts = Metrics.counter m "sat.conflicts" in
        Format.printf "jobs %d: %.2fs wall, %d experiments, %d conflicts@.%!" jobs
          wall outcome.Campaign.stats.Stats.experiments conflicts;
        (jobs, wall, outcome))
      job_counts
  in
  let wall_of j =
    List.find_map (fun (jobs, w, _) -> if jobs = j then Some w else None) runs
    |> Option.get
  in
  let baseline = wall_of 1 in
  let counts (o : Campaign.outcome) =
    let s = o.Campaign.stats in
    ( s.Stats.programs,
      s.Stats.experiments,
      s.Stats.counterexamples,
      s.Stats.inconclusive,
      s.Stats.programs_with_counterexample,
      Metrics.counter o.Campaign.telemetry.Collector.metrics "sat.conflicts" )
  in
  let _, _, outcome1 = List.hd runs in
  let deterministic =
    List.for_all (fun (_, _, o) -> counts o = counts outcome1) runs
  in
  if not deterministic then
    Format.printf "WARNING: statistics differ across job counts!@.";
  let run_json (jobs, wall, (o : Campaign.outcome)) =
    let s = o.Campaign.stats in
    let m = o.Campaign.telemetry.Collector.metrics in
    let speedup = if wall > 0. then baseline /. wall else 0. in
    (* A run asking for more domains than the machine has cores cannot
       scale; flag it so a reader does not mistake its speedup (or lack
       of one) for a property of the code.  The flag depends only on the
       configuration, never on the measured outcome. *)
    let cores_limited =
      if jobs > 1 then
        [ ("cores_limited", Json.Bool (jobs > Service_bench.available_cores)) ]
      else []
    in
    Json.Obj
      ([
        ("jobs", Json.Num (float_of_int jobs));
        ("wall_seconds", Json.Num wall);
        ("speedup_vs_jobs1", Json.Num speedup);
        ( "programs_per_second",
          Json.Num (if wall > 0. then float_of_int programs /. wall else 0.) );
        ("sat_conflicts", Json.Num (float_of_int (Metrics.counter m "sat.conflicts")));
        ("sat_queries", Json.Num (float_of_int (Metrics.counter m "sat.queries")));
        ( "phases",
          Json.Obj
            [
              ( "generation_seconds",
                Json.Num (Metrics.histogram_sum m "phase.generation.seconds") );
              ( "execution_seconds",
                Json.Num (Metrics.histogram_sum m "phase.execution.seconds") );
            ] );
        ("experiments", Json.Num (float_of_int s.Stats.experiments));
        ("counterexamples", Json.Num (float_of_int s.Stats.counterexamples));
      ]
      @ cores_limited)
  in
  let solver_section = solver_microbench () in
  let portfolio_section = portfolio_microbench () in
  let doc =
    Json.Obj
      [
        ("schema_version", Json.Num 1.);
        ("benchmark", Json.Str "campaign-multicore");
        ( "campaign",
          Json.Obj
            [
              ("name", Json.Str name);
              ("template", Json.Str "A");
              ("setup", Json.Str "mct-vs-mspec");
              ("programs", Json.Num (float_of_int programs));
              ("tests_per_program", Json.Num (float_of_int tests));
              ("seed", Json.Num (Int64.to_float seed));
              ("smoke", Json.Bool smoke);
            ] );
        ( "available_cores",
          Json.Num (float_of_int Service_bench.available_cores) );
        ("deterministic_across_jobs", Json.Bool deterministic);
        ("runs", Json.Arr (List.map run_json runs));
        ("solver_microbench", solver_section);
        ("portfolio", portfolio_section);
      ]
  in
  let oc = open_out out in
  output_string oc (Json.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "wrote %s@." out;
  if not deterministic then exit 1

(* Validates that a BENCH_campaign.json emitted above is well-formed:
   parses, carries the required keys, and covers jobs {1, 2, 4}.  Used by
   `make bench-smoke` / CI so a schema regression fails the build. *)
let validate_bench file =
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt in
  let text =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error m -> fail "%s" m
  in
  let doc = try Json.of_string text with Json.Parse_error m -> fail "%s: %s" file m in
  let member k j =
    match Json.member k j with Some v -> v | None -> fail "missing key %S" k
  in
  let num k j =
    match member k j with Json.Num n -> n | _ -> fail "key %S is not a number" k
  in
  ignore (num "schema_version" doc);
  let campaign = member "campaign" doc in
  List.iter
    (fun k -> ignore (member k campaign))
    [ "name"; "programs"; "tests_per_program"; "seed" ];
  ignore (num "available_cores" doc);
  (match member "deterministic_across_jobs" doc with
  | Json.Bool true -> ()
  | Json.Bool false -> fail "runs were not deterministic across job counts"
  | _ -> fail "deterministic_across_jobs is not a bool");
  let runs =
    match member "runs" doc with
    | Json.Arr l -> l
    | _ -> fail "key \"runs\" is not an array"
  in
  let seen =
    List.map
      (fun r ->
        List.iter
          (fun k -> ignore (num k r))
          [ "wall_seconds"; "speedup_vs_jobs1"; "programs_per_second"; "sat_conflicts" ];
        let phases = member "phases" r in
        ignore (num "generation_seconds" phases);
        ignore (num "execution_seconds" phases);
        let jobs = int_of_float (num "jobs" r) in
        (* Parallel runs must carry the honesty flag: slower-than-serial
           results are only trustworthy if annotated. *)
        if jobs > 1 then begin
          match member "cores_limited" r with
          | Json.Bool _ -> ()
          | _ -> fail "run with jobs = %d has no boolean \"cores_limited\"" jobs
        end;
        jobs)
      runs
  in
  List.iter
    (fun j -> if not (List.mem j seen) then fail "no run with jobs = %d" j)
    [ 1; 2; 4 ];
  let solver = member "solver_microbench" doc in
  List.iter
    (fun k ->
      ignore (num (k ^ "_seconds") solver);
      ignore (num (k ^ "_min_seconds") solver);
      ignore (num (k ^ "_median_seconds") solver))
    [ "blast_private_graph"; "blast_shared_graph"; "first_model"; "enumerate" ];
  List.iter
    (fun k -> ignore (num k solver))
    [
      "relations";
      "reps";
      "draws_per_session";
      "models_enumerated";
      "clauses_emitted";
      "minor_words_per_clause";
      "minor_words_per_model";
    ];
  let portfolio = member "portfolio" doc in
  List.iter
    (fun k -> ignore (num k portfolio))
    [
      "configs"; "relations"; "budget_conflicts"; "sequential_seconds";
      "parallel_seconds";
    ];
  (match member "wins" portfolio with
  | Json.Obj _ -> ()
  | _ -> fail "portfolio key \"wins\" is not an object");
  (match member "deterministic_across_jobs" portfolio with
  | Json.Bool true -> ()
  | Json.Bool false -> fail "portfolio race was not deterministic"
  | _ -> fail "portfolio deterministic_across_jobs is not a bool");
  Printf.printf "OK: %s is a valid campaign benchmark (%d runs)\n" file
    (List.length runs)

(* Perf regression gate (`make perf-check`): re-runs the seeded campaign at
   the same size as the committed reference and fails if the fresh jobs=1
   generation-phase time regresses more than 25% against it.  Generation
   time — SMT blasting, solving, model enumeration — is the phase this
   repository optimizes; wall time also contains the simulator, and
   parallel runs depend on the machine, so neither is gated. *)
let compare_bench ref_file new_file =
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt in
  let load file =
    let text =
      try In_channel.with_open_text file In_channel.input_all
      with Sys_error m -> fail "%s" m
    in
    try Json.of_string text with Json.Parse_error m -> fail "%s: %s" file m
  in
  let generation_jobs1 file doc =
    let runs =
      match Json.member "runs" doc with
      | Some (Json.Arr l) -> l
      | _ -> fail "%s: no runs array" file
    in
    let jobs1 =
      List.find_opt
        (fun r -> match Json.member "jobs" r with Some (Json.Num 1.) -> true | _ -> false)
        runs
    in
    match jobs1 with
    | None -> fail "%s: no jobs = 1 run" file
    | Some r -> (
      match Json.member "phases" r with
      | Some p -> (
        match Json.member "generation_seconds" p with
        | Some (Json.Num n) -> n
        | _ -> fail "%s: no generation_seconds" file)
      | None -> fail "%s: no phases" file)
  in
  let reference = generation_jobs1 ref_file (load ref_file) in
  let fresh = generation_jobs1 new_file (load new_file) in
  let allowed = reference *. 1.25 in
  Printf.printf
    "generation_seconds (jobs=1): reference %.3fs, this run %.3fs (limit %.3fs)\n"
    reference fresh allowed;
  if fresh > allowed then
    fail "generation phase regressed %.0f%% (> 25%% over %s)"
      ((fresh /. reference -. 1.) *. 100.)
      ref_file;
  Printf.printf "OK: generation phase within 25%% of %s\n" ref_file

(* Service perf regression gate (`make service-perf-check`): re-runs the
   load generator and compares its concurrency-1 scaling entry against
   the committed BENCH_service.json.  Service throughput is noisier than
   the solver's generation phase (threads, loopback TCP, campaign
   scheduling), so the gate is deliberately loose: fail only when fresh
   throughput drops below half the committed rate or p95 latency more
   than doubles. *)
let compare_service ref_file new_file =
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt in
  let load file =
    let text =
      try In_channel.with_open_text file In_channel.input_all
      with Sys_error m -> fail "%s" m
    in
    try Json.of_string text with Json.Parse_error m -> fail "%s: %s" file m
  in
  let conc1 file =
    let doc = load file in
    let entries =
      match Json.member "concurrency_scaling" doc with
      | Some (Json.Arr l) -> l
      | _ -> fail "%s: no concurrency_scaling block" file
    in
    let entry =
      match
        List.find_opt
          (fun e ->
            match Json.member "concurrency" e with
            | Some (Json.Num 1.) -> true
            | _ -> false)
          entries
      with
      | Some e -> e
      | None -> fail "%s: no concurrency = 1 entry" file
    in
    let throughput =
      match Json.member "throughput_campaigns_per_second" entry with
      | Some (Json.Num n) -> n
      | _ -> fail "%s: concurrency-1 entry has no throughput" file
    in
    let p95 =
      match Json.member "latency_seconds" entry with
      | Some l -> (
        match Json.member "p95" l with
        | Some (Json.Num n) -> n
        | _ -> fail "%s: concurrency-1 entry has no p95" file)
      | None -> fail "%s: concurrency-1 entry has no latency_seconds" file
    in
    (throughput, p95)
  in
  let ref_tp, ref_p95 = conc1 ref_file in
  let new_tp, new_p95 = conc1 new_file in
  Printf.printf
    "concurrency-1: reference %.2f campaigns/s p95 %.3fs, this run %.2f \
     campaigns/s p95 %.3fs\n"
    ref_tp ref_p95 new_tp new_p95;
  if new_tp < ref_tp /. 2. then
    fail "service throughput dropped below half of %s (%.2f < %.2f)" ref_file
      new_tp (ref_tp /. 2.);
  if new_p95 > ref_p95 *. 2. then
    fail "service p95 latency more than doubled against %s (%.3fs > %.3fs)"
      ref_file new_p95 (ref_p95 *. 2.);
  Printf.printf "OK: service throughput and p95 within bounds of %s\n" ref_file

(* Validates the --trace / --metrics output of a campaign run: the trace
   must re-parse with Scamv_util.Json and contain every pipeline span the
   instrumentation promises, and the metrics dump must expose the
   registry's core counter families.  Used by `make metrics-smoke` / CI so
   a telemetry regression fails the build. *)
let validate_telemetry trace_file metrics_file =
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt in
  let read f =
    try In_channel.with_open_text f In_channel.input_all
    with Sys_error m -> fail "%s" m
  in
  let doc =
    try Json.of_string (read trace_file)
    with Json.Parse_error m -> fail "%s: %s" trace_file m
  in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.Arr l) -> l
    | _ -> fail "%s: missing traceEvents array" trace_file
  in
  let span_names =
    List.filter_map
      (fun e ->
        match Json.member "name" e with Some (Json.Str s) -> Some s | _ -> None)
      events
  in
  List.iter
    (fun required ->
      if not (List.mem required span_names) then
        fail "%s: no %S span recorded" trace_file required)
    [
      "campaign"; "program"; "generate"; "prepare"; "annotate"; "lift";
      "symexec"; "synth"; "enumerate"; "execute"; "run"; "compare";
    ];
  let metrics_text = read metrics_file in
  let has_metric name =
    (* A metric is present iff some line starts with its mangled name
       (plain sample, _bucket{le=...}, _sum or _count line). *)
    String.split_on_char '\n' metrics_text
    |> List.exists (fun line ->
           String.length line >= String.length name
           && String.sub line 0 (String.length name) = name)
  in
  List.iter
    (fun required ->
      if not (has_metric required) then
        fail "%s: no %s metric" metrics_file required)
    [
      "scamv_sat_conflicts"; "scamv_sat_queries"; "scamv_sat_learned";
      "scamv_sat_deleted"; "scamv_sat_restarts"; "scamv_sat_lbd";
      "scamv_smt_blast_cache_hits"; "scamv_smt_blast_cache_cross_hits";
      "scamv_uarch_cache_hits"; "scamv_uarch_tlb_hits";
      "scamv_uarch_predictor_hits"; "scamv_campaign_experiments";
      "scamv_phase_generation_seconds"; "scamv_phase_execution_seconds";
      "scamv_span_enumerate_seconds";
      (* Incremental-session and portfolio instrumentation (the smoke
         campaign runs a refined setup with --portfolio 2, so the scope
         and rescue counters must all be registered). *)
      "scamv_sat_pushes"; "scamv_sat_pops"; "scamv_sat_assumption_solves";
      "scamv_smt_incremental_reuse_hits"; "scamv_portfolio_races";
      "scamv_portfolio_wins_0"; "scamv_portfolio_wins_1";
    ];
  Printf.printf "OK: %s (%d spans) and %s validate\n" trace_file
    (List.length events) metrics_file

(* Validates a /metrics dump from a live validation server (the optional
   third `validate-telemetry` argument, produced by `service-metrics`):
   the connection-management and scheduler families must all be present —
   they are pre-registered at startup, so a missing name means the
   registration regressed, not merely that a counter stayed at zero. *)
let validate_service_metrics file =
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt in
  let text =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error m -> fail "%s" m
  in
  let has_metric name =
    String.split_on_char '\n' text
    |> List.exists (fun line ->
           String.length line >= String.length name
           && String.sub line 0 (String.length name) = name)
  in
  List.iter
    (fun required ->
      if not (has_metric required) then fail "%s: no %s metric" file required)
    [
      "scamv_service_http_requests";
      "scamv_service_campaigns_submitted";
      "scamv_service_campaigns_completed";
      "scamv_service_connections_active";
      "scamv_service_connections_queued";
      "scamv_service_connections_reused";
      "scamv_service_connections_rejected";
      "scamv_service_sessions_total";
      "scamv_scheduler_concurrent_sessions";
      "scamv_scheduler_slices";
      "scamv_scheduler_slice_width";
    ];
  (* the dump comes from a server that served a reused request *)
  let value name =
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.index_opt line ' ' with
           | Some i when String.sub line 0 i = name ->
             float_of_string_opt
               (String.sub line (i + 1) (String.length line - i - 1))
           | _ -> None)
  in
  (match value "scamv_service_connections_reused" with
  | Some v when v >= 1.0 -> ()
  | Some v -> fail "%s: connections_reused stayed at %g" file v
  | None -> fail "%s: connections_reused has no sample line" file);
  Printf.printf "OK: %s carries the service/scheduler metric families\n" file

(* ------------------------------------------------------------------ *)
(* Chaos harness (`make chaos-smoke`)                                  *)
(* ------------------------------------------------------------------ *)

module Journal = Scamv.Journal
module Chaos = Scamv_util.Chaos
module Deadline = Scamv_util.Deadline
module Stopwatch = Scamv_util.Stopwatch

(* Acceptance tests for the supervised execution layer (DESIGN.md
   "Failure domains and supervision"):

   - kill/resume: a child process runs a journaled campaign and is
     SIGKILLed mid-flight; the surviving journal additionally has its
     tail truncated mid-record.  The resumed campaign must recover the
     clean prefix (reporting what it dropped) and finish with a journal,
     progress log and statistics byte-identical to an uninterrupted run.
   - worker crashes: with chaos worker kills armed, --jobs 1 and
     --jobs 4 runs must stay byte-identical — crash decisions are pure
     per-program functions of the chaos seed and domain restarts are
     schedule-independent — while actually crashing some (not all)
     programs.
   - deadlines: with a virtual conflict deadline armed, --jobs 1 and
     --jobs 2 runs must stay byte-identical and actually expire on some
     (not all) programs. *)

let chaos_fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* One fixed seeded campaign under the frozen clock, so every observable
   output (journal rows, stats, progress lines) is a pure function of the
   seed and the injected chaos/deadline — byte-identical means identical. *)
let chaos_cfg ?deadline ?chaos ~programs ~tests () =
  Campaign.make ~name:"chaos"
    ~template:Templates.template_a
    ~setup:(Refinement.mct_vs_mspec ())
    ~programs ~tests_per_program:tests ~seed:2021L
    ~sat_budget:(Scamv_smt.Sat.budget ~conflicts:200 ())
    ?deadline ?chaos ~clock:Stopwatch.frozen ()

let run_campaign ?resume ~jobs cfg =
  let journal = Journal.create () in
  let events = ref [] in
  let outcome =
    Campaign.run ~on_event:(fun m -> events := m :: !events) ~journal ?resume ~jobs cfg
  in
  (Journal.to_string journal, outcome, List.rev !events)

(* The `chaos-child` subcommand: runs the journaled campaign this process
   is about to SIGKILL.  Kept inside the bench executable so the harness
   needs no extra binary. *)
let chaos_child path programs tests =
  let cfg = chaos_cfg ~programs ~tests () in
  let journal = Journal.create ~path () in
  let (_ : Campaign.outcome) = Campaign.run ~journal ~jobs:1 cfg in
  Journal.close journal

let chaos_kill_resume ~programs ~tests () =
  let path = Filename.temp_file "scamv-chaos" ".journal" in
  Sys.remove path;
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process Sys.executable_name
      [|
        Sys.executable_name; "chaos-child"; path; string_of_int programs;
        string_of_int tests;
      |]
      Unix.stdin dev_null dev_null
  in
  Unix.close dev_null;
  (* Journal records are flushed one by one; wait until a couple are on
     disk, then SIGKILL the child mid-campaign.  If the machine is fast
     enough that the child finishes first, the test still exercises
     recovery: the tail is torn below either way. *)
  let give_up = Unix.gettimeofday () +. 120.0 in
  let size () = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
  let child_exited = ref false in
  while (not !child_exited) && size () < 200 do
    if Unix.gettimeofday () > give_up then
      chaos_fail "chaos child wrote no journal records within 120s";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> Unix.sleepf 0.02
    | _ -> child_exited := true)
  done;
  if not !child_exited then begin
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid)
  end;
  let contents = In_channel.with_open_bin path In_channel.input_all in
  if String.length contents < 40 then
    chaos_fail "chaos child died before writing any journal record";
  (* Tear the tail mid-record so resume must take the recovery path. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub contents 0 (String.length contents - 7)));
  let cfg () = chaos_cfg ~programs ~tests () in
  let journal_resumed, resumed, events = run_campaign ~resume:path ~jobs:1 (cfg ()) in
  let journal_ref, reference, _ = run_campaign ~jobs:1 (cfg ()) in
  if not (List.exists (fun m -> contains_substring m "damaged tail") events) then
    chaos_fail "resume after SIGKILL did not report tail recovery";
  if journal_resumed <> journal_ref then
    chaos_fail "resumed journal differs from uninterrupted run";
  if Stdlib.compare resumed.Campaign.stats reference.Campaign.stats <> 0 then
    chaos_fail "resumed statistics differ from uninterrupted run";
  let m = resumed.Campaign.telemetry.Collector.metrics in
  if Metrics.counter m "journal.recovered_records" <= 0 then
    chaos_fail "resume recovered no journal records";
  if Metrics.counter m "journal.recovered_tails" <> 1 then
    chaos_fail "resume did not count the damaged tail";
  Sys.remove path;
  Printf.printf "OK: SIGKILL + torn tail resume matches uninterrupted run (%d records recovered)\n%!"
    (Metrics.counter m "journal.recovered_records")

let check_identical ~what (journal_a, (oa : Campaign.outcome), ev_a)
    (journal_b, (ob : Campaign.outcome), ev_b) =
  if journal_a <> journal_b then chaos_fail "%s: journals differ across --jobs" what;
  if ev_a <> ev_b then chaos_fail "%s: progress logs differ across --jobs" what;
  (* Stdlib.compare, not (=): an all-crashed run has zero experiments and
     its Summary min/max fields are nan, which (=) never equates. *)
  if Stdlib.compare oa.Campaign.stats ob.Campaign.stats <> 0 then begin
    Format.eprintf "--jobs A stats:@.%a@.--jobs B stats:@.%a@." Stats.pp
      oa.Campaign.stats Stats.pp ob.Campaign.stats;
    chaos_fail "%s: statistics differ across --jobs" what
  end

let chaos_worker_crash_identity ~programs ~tests () =
  let mk () =
    chaos_cfg ~chaos:(Chaos.create ~rate:0.4 ~seed:0xC4A05L ()) ~programs ~tests ()
  in
  let r1 = run_campaign ~jobs:1 (mk ()) in
  let r4 = run_campaign ~jobs:4 (mk ()) in
  check_identical ~what:"worker crashes" r1 r4;
  let _, (o : Campaign.outcome), _ = r1 in
  let crashed = o.Campaign.stats.Stats.crashed_programs in
  if crashed = 0 then
    chaos_fail "chaos rate produced no worker crashes (tune rate/seed)";
  if crashed >= programs then chaos_fail "chaos crashed every program";
  let _, o4, _ = r4 in
  let restarts j = Metrics.counter j.Campaign.telemetry.Collector.metrics "pool.restarts" in
  if restarts o = 0 then chaos_fail "no pool restarts recorded";
  if restarts o <> restarts o4 then
    chaos_fail "pool.restarts differs across --jobs (%d vs %d)" (restarts o)
      (restarts o4);
  Printf.printf "OK: worker-crash campaign byte-identical at --jobs 1/4 (%d of %d programs crashed, %d restarts)\n%!"
    crashed programs (restarts o)

let chaos_deadline_identity ~programs ~tests () =
  (* The limit scales with the per-program test count so that across the
     smoke and full sizes some programs expire and some finish. *)
  let mk () = chaos_cfg ~deadline:(Deadline.Conflicts (50 * tests)) ~programs ~tests () in
  let r1 = run_campaign ~jobs:1 (mk ()) in
  let r2 = run_campaign ~jobs:2 (mk ()) in
  check_identical ~what:"deadlines" r1 r2;
  let _, (o : Campaign.outcome), _ = r1 in
  let hits = Metrics.counter o.Campaign.telemetry.Collector.metrics "deadline.hits" in
  if hits = 0 then chaos_fail "no program hit the conflict deadline (tune limit)";
  if o.Campaign.stats.Stats.crashed_programs >= programs then
    chaos_fail "every program hit the deadline";
  Printf.printf "OK: deadline campaign byte-identical at --jobs 1/2 (%d deadline hits)\n%!"
    hits

let chaos_suite ~smoke () =
  let programs = if smoke then 6 else 12 in
  let tests = if smoke then 3 else 6 in
  Printf.printf "## Chaos harness (%s: %d programs x %d tests)\n%!"
    (if smoke then "smoke" else "full")
    programs tests;
  chaos_kill_resume ~programs ~tests ();
  chaos_worker_crash_identity ~programs ~tests ();
  chaos_deadline_identity ~programs ~tests ();
  Printf.printf "chaos: all acceptance checks passed\n%!"

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (match args with
  | "validate-bench" :: file :: _ ->
    validate_bench file;
    exit 0
  | "validate-telemetry" :: trace :: metrics :: rest ->
    validate_telemetry trace metrics;
    (match rest with
    | service :: _ -> validate_service_metrics service
    | [] -> ());
    exit 0
  | "compare-bench" :: ref_file :: new_file :: _ ->
    compare_bench ref_file new_file;
    exit 0
  | "solver" :: _ ->
    ignore (solver_microbench ());
    ignore (portfolio_microbench ());
    exit 0
  | "solver-identity" :: _ ->
    solver_identity ();
    exit 0
  | "chaos-child" :: path :: programs :: tests :: _ ->
    chaos_child path (int_of_string programs) (int_of_string tests);
    exit 0
  | "chaos" :: rest ->
    chaos_suite ~smoke:(List.mem "--smoke" rest) ();
    exit 0
  | "service-child" :: dir :: rest ->
    let concurrency = match rest with c :: _ -> int_of_string c | [] -> 1 in
    Service_bench.child ~concurrency dir;
    exit 0
  | "service-metrics" :: rest ->
    let out =
      let rec find = function
        | "--out" :: f :: _ -> f
        | _ :: tail -> find tail
        | [] -> "metrics.service.txt"
      in
      find rest
    in
    Service_bench.metrics_dump ~out ();
    exit 0
  | "compare-service" :: ref_file :: new_file :: _ ->
    compare_service ref_file new_file;
    exit 0
  | "service" :: rest ->
    let smoke = List.mem "--smoke" rest in
    let out =
      let rec find = function
        | "--out" :: f :: _ -> f
        | _ :: tail -> find tail
        | [] -> "BENCH_service.json"
      in
      find rest
    in
    if not (List.mem "--load-only" rest) then Service_bench.suite ();
    Service_bench.load ~smoke ~out ();
    exit 0
  | _ -> ());
  let full = List.mem "--full" args in
  let smoke = List.mem "--smoke" args in
  let out =
    let rec find = function
      | "--out" :: f :: _ -> f
      | _ :: rest -> find rest
      | [] -> "BENCH_campaign.json"
    in
    find args
  in
  let args =
    let rec strip = function
      | "--out" :: _ :: rest -> strip rest
      | a :: rest when a = "--full" || a = "--smoke" -> strip rest
      | a :: rest -> a :: strip rest
      | [] -> []
    in
    strip args
  in
  let what = match args with [] -> [ "all" ] | _ -> args in
  (* `campaign` is deliberately not part of "all": it re-runs the same
     campaign three times and is meant for the bench-smoke target / perf
     trajectory, not the paper-reproduction sweep. *)
  if List.mem "campaign" what then begin
    bench_campaign ~smoke ~out ();
    if what = [ "campaign" ] then begin
      Format.printf "@.done.@.";
      exit 0
    end
  end;
  let wants k = List.mem k what || List.mem "all" what in
  let table1 =
    if wants "table1" then Some (run_rows ~full ~title:"Table 1" table1_rows) else None
  in
  let fig7 =
    if wants "fig7" then Some (run_rows ~full ~title:"Fig. 7 table" fig7_rows) else None
  in
  (match (table1, fig7) with Some t1, Some f7 -> checklist t1 f7 | _ -> ());
  if wants "fig3" then fig3 ();
  if wants "ablations" then ablations ();
  if wants "repair" then repair ();
  if wants "channels" then channels ();
  if wants "micro" then micro ();
  Format.printf "@.done.@."
