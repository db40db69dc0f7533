(* Bench-side tracing for the traced run.  Spans are recorded around the
   benchmark's own calls into each layer's public functions (no span is
   added inside the libraries), kept in memory per program, and merged
   with the spans the libraries already record into their telemetry
   collector.  Each span also carries the minor-heap words its domain
   allocated inside it ([Gc.minor_words] is domain-local in OCaml 5, so
   the figure is exact even when programs run on several domains).  A
   tracer created with [~enabled:false] records nothing, so the same loop
   can be timed with and without tracing. *)

type span = {
  name : string;
  owner : int;  (** program index, or -1 for campaign-level spans *)
  id : int;
  parent : int;  (** id of the enclosing bench span, -1 at the root *)
  start : float;
  stop : float;
  words : float;  (** minor words allocated inside, children included *)
}

type t = {
  owner : int;
  enabled : bool;  (** false: [span] only calls its function *)
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;
}

let create ?(enabled = true) ~owner () = { owner; enabled; next = 0; stack = []; spans = [] }

let span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with [] -> -1 | p :: _ -> p in
    t.stack <- id :: t.stack;
    let w0 = Gc.minor_words () in
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        let words = Gc.minor_words () -. w0 in
        t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
        t.spans <- { name; owner = t.owner; id; parent; start; stop; words } :: t.spans)
      f
  end

(* An interval measured by the caller (e.g. submit -> first streamed
   record), recorded under the innermost open span. *)
let interval t name ~start ~stop =
  if t.enabled then begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with [] -> -1 | p :: _ -> p in
    t.spans <- { name; owner = t.owner; id; parent; start; stop; words = 0.0 } :: t.spans
  end

let spans t = List.rev t.spans

(* Library span names (Pipeline, Lifter, Executor) mapped onto the layer
   names the benchmark reports.  "prepare" duplicates the bench span
   around [Pipeline.prepare] and is dropped. *)
let layer_of_library_span = function
  | "prepare" -> None
  | "lift" -> Some "bir.lift"
  | "annotate" -> Some "bir.annotate"
  | "symexec" -> Some "symbolic.symexec"
  | "synth" -> Some "relation.synth"
  | "enumerate" -> Some "smt.enumerate"
  | "portfolio" -> Some "smt.portfolio"
  | "run" -> Some "microarch.run"
  | "compare" -> Some "microarch.compare"
  | other -> Some ("lib." ^ other)

(* A layer's totals: inclusive seconds, self seconds (inclusive minus the
   part its direct children cover), call count, and self-allocated minor
   words (bench spans only; library spans carry no allocation figure, so
   their words stay with the enclosing bench span). *)
type layer = {
  mutable incl_s : float;
  mutable self_s : float;
  mutable calls : int;
  mutable self_words : float;
}

type node = { lname : string; lstart : float; lstop : float; lwords : float; bench : bool }

let layer_in tbl name =
  match Hashtbl.find_opt tbl name with
  | Some l -> l
  | None ->
    let l = { incl_s = 0.0; self_s = 0.0; calls = 0; self_words = 0.0 } in
    Hashtbl.replace tbl name l;
    l

(* Fold one program's (or the campaign level's) spans into [tbl].  All
   spans of one owner ran on one domain and nest properly, so sorting by
   start (longer first on ties, bench before library) and keeping a stack
   of open intervals recovers each span's direct parent. *)
let accumulate tbl ~bench ~library =
  let nodes =
    List.map
      (fun (s : span) ->
        { lname = s.name; lstart = s.start; lstop = s.stop; lwords = s.words; bench = true })
      bench
    @ List.filter_map
        (fun (s : Scamv_telemetry.Collector.span) ->
          Option.map
            (fun lname ->
              {
                lname;
                lstart = s.start_s;
                lstop = s.start_s +. s.duration_s;
                lwords = 0.0;
                bench = false;
              })
            (layer_of_library_span s.name))
        library
  in
  let nodes =
    List.sort
      (fun a b ->
        match Float.compare a.lstart b.lstart with
        | 0 -> (
          match Float.compare b.lstop a.lstop with
          | 0 -> Bool.compare b.bench a.bench
          | c -> c)
        | c -> c)
      nodes
  in
  let eps = 1e-6 in
  let stack = ref [] in
  List.iter
    (fun n ->
      let rec unwind () =
        match !stack with
        | top :: rest when n.lstop > top.lstop +. eps ->
          stack := rest;
          unwind ()
        | _ -> ()
      in
      unwind ();
      let dur = n.lstop -. n.lstart in
      let l = layer_in tbl n.lname in
      l.incl_s <- l.incl_s +. dur;
      l.self_s <- l.self_s +. dur;
      l.calls <- l.calls + 1;
      l.self_words <- l.self_words +. n.lwords;
      (match !stack with
      | parent :: _ ->
        let p = layer_in tbl parent.lname in
        p.self_s <- p.self_s -. dur;
        p.self_words <- p.self_words -. n.lwords
      | [] -> ());
      stack := n :: !stack)
    nodes

let get tbl name =
  match Hashtbl.find_opt tbl name with
  | Some l -> l
  | None -> { incl_s = 0.0; self_s = 0.0; calls = 0; self_words = 0.0 }

(* [per] divides the totals into per-campaign figures; [capacity_s] is
   the per-campaign capacity the self shares are taken of. *)
let print_table tbl ~per ~capacity_s =
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let rows = List.sort (fun (_, a) (_, b) -> Float.compare b.self_s a.self_s) rows in
  Printf.printf "  %-30s %12s %12s %8s %10s %14s\n" "layer (per campaign)" "incl s" "self s"
    "self %" "calls" "self words";
  List.iter
    (fun (k, l) ->
      Printf.printf "  %-30s %12.6f %12.6f %7.2f%% %10.1f %14.0f\n" k (l.incl_s /. per)
        (l.self_s /. per)
        (100.0 *. l.self_s /. per /. capacity_s)
        (float_of_int l.calls /. per)
        (l.self_words /. per))
    rows
