(* The named workload catalogue: every (template, setup) pair a campaign
   request may name, resolved to the generator / refinement / executor
   view the campaign driver needs.  The only copy: the batch CLI, the
   validation service and the benchmarks all resolve names here, so a
   campaign submitted over the wire is constructed exactly like one
   launched from the command line — the prerequisite for streamed
   artifacts being byte-identical to a batch run. *)

module Platform = Scamv_isa.Platform
module Executor = Scamv_microarch.Executor
module Refinement = Scamv_models.Refinement
module Region = Scamv_models.Region
module Templates = Scamv_gen.Templates
module Gen = Scamv_gen.Gen

let platform = Platform.cortex_a53
let region = Region.paper_unaligned platform
let region_pa = Region.paper_page_aligned platform

let setups =
  [
    ("mct-unguided", fun () -> Refinement.mct_unguided);
    ("mct-vs-mspec", fun () -> Refinement.mct_vs_mspec ());
    ("mspec1-vs-mspec", fun () -> Refinement.mspec1_vs_mspec ());
    ("mct-vs-mspec-sl", fun () -> Refinement.mct_vs_mspec_straight_line ());
    ("mpart-unguided", fun () -> Refinement.mpart_unguided platform region);
    ("mpart-vs-mpart'", fun () -> Refinement.mpart_vs_mpart' platform region);
    ("mpart-pa-unguided", fun () -> Refinement.mpart_unguided platform region_pa);
    ("mpart-pa-vs-mpart'", fun () -> Refinement.mpart_vs_mpart' platform region_pa);
  ]

let setup_names = List.map fst setups

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let view_for name =
  if has_prefix ~prefix:"mpart" name then
    if has_prefix ~prefix:"mpart-pa" name then
      Executor.Region
        {
          first_set = region_pa.Region.first_set;
          last_set = region_pa.Region.last_set;
        }
    else
      Executor.Region
        { first_set = region.Region.first_set; last_set = region.Region.last_set }
  else Executor.Full_cache

let lookup_setup name =
  match List.assoc_opt name setups with
  | Some s -> Ok (s ())
  | None ->
    Error
      (Printf.sprintf "unknown setup %s (expected one of: %s)" name
         (String.concat ", " setup_names))

let lookup_template ?isa name =
  match Templates.by_name ?isa name with
  | t -> Ok t
  | exception Invalid_argument msg -> Error msg

(* The campaign-name formula.  Journal records embed this name, and a
   resume journal must carry it, so every front end spells it the same. *)
let campaign_name ~setup ~template =
  Printf.sprintf "%s on template %s" setup template
