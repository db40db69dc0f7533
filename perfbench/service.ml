(* The service workload: an in-process `scamv serve --concurrency 2
   --jobs 2` with a state directory, driven by closed-loop keep-alive
   clients.  Each client POSTs a tiny seeded campaign, reads its chunked
   NDJSON stream incrementally (so the first verdict record is
   timestamped when it arrives, not when the body ends), and submits the
   next campaign only after the previous one's [done] line. *)

module Json = Scamv_util.Json
module Stopwatch = Scamv_util.Stopwatch
module Campaign = Scamv.Campaign
module Journal = Scamv.Journal
module Executor = Scamv_microarch.Executor
module Metrics = Scamv_telemetry.Metrics
module Scheduler = Scamv_service.Scheduler
module Server = Scamv_service.Server
module Tenant = Scamv_service.Tenant

let template = "A"
let setup = "mct-vs-mspec"
let programs = 1
let tests = 2
let jobs = 2
let concurrency = 2
let clients = 2

(* Domains that run programs.  A slice wider than one worker owns that
   many domains; width-1 slices run their campaigns inline on their
   runner threads, which all share the scheduler's own domain.  At
   [--jobs 2 --concurrency 2] both slices are width 1, so this is 1. *)
let program_domains =
  let widths = Array.to_list (Scamv_util.Pool.slice_widths ~total:jobs ~slices:concurrency) in
  List.fold_left (fun acc w -> if w > 1 then acc + w else acc) 0 widths
  + if List.mem 1 widths then 1 else 0

(* ------------------------------------------------------------------ *)
(* Streaming HTTP/1.1 client over one keep-alive connection            *)
(* ------------------------------------------------------------------ *)

exception Http_error of string

let http_fail fmt = Printf.ksprintf (fun s -> raise (Http_error s)) fmt

(* A keep-alive connection.  The server rolls a connection over after its
   per-connection request cap (answering the last request with
   [Connection: close]); the client then reconnects before its next
   request, as any HTTP/1.1 client does. *)
type conn = {
  port : int;
  mutable fd : Unix.file_descr;
  mutable ic : in_channel;
  mutable oc : out_channel;
  mutable open_ : bool;
}

let open_socket port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let connect ~port =
  let fd = open_socket port in
  { port; fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; open_ = true }

let close_conn c =
  if c.open_ then begin
    c.open_ <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let reconnect c =
  let fd = open_socket c.port in
  c.fd <- fd;
  c.ic <- Unix.in_channel_of_descr fd;
  c.oc <- Unix.out_channel_of_descr fd;
  c.open_ <- true

let read_line_crlf ic =
  match In_channel.input_line ic with
  | None -> http_fail "connection closed mid-response"
  | Some l ->
    let n = String.length l in
    if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l

let send c ~meth ~path ~body =
  Printf.fprintf c.oc "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s" meth
    path (String.length body) body;
  flush c.oc

let read_head c =
  let status =
    match String.split_on_char ' ' (read_line_crlf c.ic) with
    | _ :: code :: _ -> int_of_string code
    | _ -> http_fail "malformed status line"
  in
  let rec headers acc =
    match read_line_crlf c.ic with
    | "" -> acc
    | l -> (
      match String.index_opt l ':' with
      | None -> http_fail "malformed header %S" l
      | Some i ->
        headers
          (( String.lowercase_ascii (String.sub l 0 i),
             String.trim (String.sub l (i + 1) (String.length l - i - 1)) )
          :: acc))
  in
  (status, headers [])

(* Body delivery: [on_line] sees every complete NDJSON line as soon as the
   chunk carrying its newline has been read. *)
let read_body c headers ~on_line =
  let pending = Buffer.create 256 in
  let feed s =
    String.iter
      (fun ch ->
        if ch = '\n' then begin
          on_line (Buffer.contents pending);
          Buffer.clear pending
        end
        else Buffer.add_char pending ch)
      s
  in
  (match List.assoc_opt "transfer-encoding" headers with
  | Some "chunked" ->
    let rec chunks () =
      let size_line = read_line_crlf c.ic in
      let hex = match String.index_opt size_line ';' with Some i -> String.sub size_line 0 i | None -> size_line in
      let size = int_of_string ("0x" ^ String.trim hex) in
      if size > 0 then begin
        feed (really_input_string c.ic size);
        ignore (read_line_crlf c.ic);
        chunks ()
      end
      else ignore (read_line_crlf c.ic)
    in
    chunks ()
  | _ -> (
    match List.assoc_opt "content-length" headers with
    | Some n -> feed (really_input_string c.ic (int_of_string n))
    | None -> http_fail "response without length"));
  if Buffer.length pending > 0 then on_line (Buffer.contents pending)

let request c ~meth ~path ~body ~on_line =
  if not c.open_ then reconnect c;
  send c ~meth ~path ~body;
  let status, headers = read_head c in
  read_body c headers ~on_line;
  (match List.assoc_opt "connection" headers with
  | Some v when String.lowercase_ascii v = "close" -> close_conn c
  | _ -> ());
  status

(* ------------------------------------------------------------------ *)
(* Inputs and the batch reference                                       *)
(* ------------------------------------------------------------------ *)

(* The run's campaign seeds: a fixed-size set drawn from the workload
   seed, served once per round.  One-program campaigns differ in cost, so
   the set is large enough for a run's mix to vary little from seed to
   seed, and small enough to check every campaign against a batch run of
   it and to serve it about ten times in a run. *)
let seed_count = 128

let campaign_seeds seed =
  let rng = ref (Scamv_util.Splitmix.of_seed (Int64.of_int seed)) in
  Array.init seed_count (fun _ ->
      let v, rng' = Scamv_util.Splitmix.next !rng in
      rng := rng';
      Int64.logand v 0x3fff_ffff_ffff_ffffL)

let family = { Batch.key = "service"; template; setup; programs; tests }

(* What a batch run of the same campaign journals, as check lines. *)
let reference seeds =
  Array.map
    (fun seed ->
      let cfg = Batch.resolve family ~seed in
      let outcome_events = ref [] in
      let (_ : Campaign.outcome) =
        Campaign.run ~on_record:(fun ev -> outcome_events := ev :: !outcome_events) cfg
      in
      List.rev_map Batch.event_line !outcome_events)
    seeds

let verdict_of_string = function
  | "distinguishable" -> Executor.Distinguishable
  | "indistinguishable" -> Executor.Indistinguishable
  | _ -> Executor.Inconclusive

let num name j = match Json.member name j with Some (Json.Num f) -> int_of_float f | _ -> -1
let str name j = match Json.member name j with Some (Json.Str s) -> s | _ -> ""

(* A streamed record as a check line (the same rendering as
   [Batch.event_line]) plus, for experiments, the journal entry a caller
   persisting the stream would write. *)
let parse_record j =
  let p = num "program" j in
  match str "kind" j with
  | "experiment" ->
    let entry =
      {
        Journal.campaign = str "campaign" j;
        program_index = p;
        test_index = num "test" j;
        template = str "template" j;
        path_pair = (num "path1" j, num "path2" j);
        verdict = verdict_of_string (str "verdict" j);
        generation_seconds = 0.0;
        execution_seconds = 0.0;
        retries = num "retries" j;
        faults = num "faults" j;
        isa = Scamv_arch.Isa.Aarch64;
      }
    in
    (Batch.event_line (Journal.Experiment entry), Some entry, false)
  | "quarantined" -> (Printf.sprintf "Q %d %d %d" p (num "path1" j) (num "path2" j), None, true)
  | "program-failed" -> (Printf.sprintf "F %d" p, None, true)
  | "crashed" -> (Printf.sprintf "C %d" p, None, true)
  | kind -> (kind, None, true)

(* ------------------------------------------------------------------ *)
(* Server life cycle                                                    *)
(* ------------------------------------------------------------------ *)

type server = { scd : Scheduler.t; srv : Server.t }

(* Set-up: scheduler (pool slices, runner threads, state dir) and HTTP
   server (bind, acceptor, workers), until it accepts. *)
let start ~state_dir =
  let config =
    {
      Scheduler.jobs;
      concurrency;
      state_dir = Some state_dir;
      quota = Tenant.default_quota;
      clock = Stopwatch.wall;
    }
  in
  let scd = Scheduler.create ~config () in
  let srv = Server.create ~port:0 scd in
  Server.start srv;
  { scd; srv }

let stop s =
  Server.stop s.srv;
  Scheduler.shutdown s.scd

(* ------------------------------------------------------------------ *)
(* Closed-loop clients                                                  *)
(* ------------------------------------------------------------------ *)

type sample = {
  submit_s : float;  (** POST round trip *)
  first_s : float;  (** submit -> first record line *)
  latency_s : float;  (** submit -> done line *)
  run_s : float;  (** server-reported campaign wall *)
  records : int;
  error : string option;  (** why the campaign counts as failed *)
}

let failed_sample error =
  { submit_s = nan; first_s = nan; latency_s = nan; run_s = nan; records = 0; error = Some error }

let body ~tenant ~seed =
  Json.to_string
    (Json.Obj
       [
         ("tenant", Json.Str tenant);
         ("template", Json.Str template);
         ("setup", Json.Str setup);
         ("programs", Json.Num (float_of_int programs));
         ("tests_per_program", Json.Num (float_of_int tests));
         ("seed", Json.Str (Int64.to_string seed));
       ])

let in_span trace name f = match trace with Some tr -> Trace.span tr name f | None -> f ()

(* One campaign: submit, stream to [done], check against the batch
   reference.  With [journal], every streamed experiment is also persisted
   the way a CI caller keeps its verdicts, under a bench span. *)
let one_campaign c ~tenant ~seed ~expected ~journal ~trace =
  let in_span name f = in_span trace name f in
  let t0 = Sampler.now () in
  let reply = Buffer.create 256 in
  let status =
    in_span "service.submit" (fun () ->
        request c ~meth:"POST" ~path:"/campaigns" ~body:(body ~tenant ~seed)
          ~on_line:(Buffer.add_string reply))
  in
  let id =
    match Json.member "id" (Json.of_string (Buffer.contents reply)) with
    | Some (Json.Str s) -> s
    | _ -> ""
  in
  let t_submit = Sampler.now () in
  if status <> 201 || id = "" then
    { (failed_sample (Printf.sprintf "submit: HTTP %d" status)) with submit_s = t_submit -. t0 }
  else begin
    let first = ref nan and records = ref [] and failed = ref false in
    let t_stream = ref t_submit in
    let done_state = ref "" and run_s = ref nan in
    let on_line l =
      if l <> "" then
        let j = Json.of_string l in
        match (Json.member "record" j, Json.member "done" j) with
        | Some r, _ ->
          if Float.is_nan !first then begin
            let t = Sampler.now () in
            first := t -. t0;
            Option.iter (fun tr -> Trace.interval tr "service.first_record" ~start:!t_stream ~stop:t) trace
          end;
          let line, entry, failure = parse_record r in
          records := line :: !records;
          if failure then failed := true;
          (match (journal, entry) with
          | Some jr, Some e -> in_span "journal.record" (fun () -> Journal.record jr e)
          | _ -> ())
        | None, Some (Json.Str d) ->
          done_state := d;
          (match Json.member "wall_seconds" j with Some (Json.Num f) -> run_s := f | _ -> ())
        | _ -> ()
    in
    let status =
      in_span "service.stream" (fun () ->
          t_stream := Sampler.now ();
          request c ~meth:"GET" ~path:("/campaigns/" ^ id ^ "/stream") ~body:"" ~on_line)
    in
    let latency_s = Sampler.now () -. t0 in
    let records = List.rev !records in
    {
      submit_s = t_submit -. t0;
      first_s = !first;
      latency_s;
      run_s = !run_s;
      records = List.length records;
      error =
        (if status <> 200 then Some (Printf.sprintf "stream: HTTP %d" status)
         else if !done_state <> "completed" then Some ("stream ended with done=" ^ !done_state)
         else if !failed || records <> expected then
           Some
             (Printf.sprintf "seed %Ld: records [%s], batch reference [%s]" seed
                (String.concat "; " records) (String.concat "; " expected))
         else None);
    }
  end

(* One round of a window: its campaigns, and its own wall and CPU. *)
type round = { r_samples : sample list; r_wall_s : float; r_cpu_s : float }

type window = {
  samples : sample list;
  rounds : round list;
  wall_s : float;  (** clients started -> all clients done, summed over rounds *)
  gc : Sampler.gc;
  before : Metrics.t;
  after : Metrics.t;
  spans : Trace.span list list;  (** per client *)
  peak_rss_mb : float;  (** after the first round *)
}

(* Serve the run's campaigns in rounds until about [seconds] have been
   measured, and at least one round.  A round starts a server with a
   fresh state directory under [state_dir] and serves every campaign
   seed once: [clients] closed loops, each on its own keep-alive
   connection, take the next seed from a shared cursor.  So every round
   does the same work from the same server state and rounds can be
   compared with each other; on one long-lived server, which keeps every
   session, each round would cost more than the one before.  [between ()]
   is called in each gap; the gaps, server start and stop included, are
   not part of the window.  [journaled] persists every streamed
   experiment the way a CI caller keeps its verdicts; [traced] adds bench
   spans. *)
let drive ~state_dir ~seeds ~expected ~seconds ~between ~journaled ~traced ~dir =
  let journals =
    Array.init clients (fun k ->
        if journaled then
          Some (Journal.create ~path:(Filename.concat dir (Printf.sprintf "ci-%d.journal" k)) ())
        else None)
  in
  let traces = Array.init clients (fun k -> if traced then Some (Trace.create ~owner:k ()) else None) in
  let before = ref Metrics.empty and after = ref Metrics.empty in
  let g0 = Sampler.gc () in
  (* a server slowed far beyond its usual pace still ends the run in
     bounded time: no campaign starts after [hard_stop] *)
  let hard_stop = Sampler.now () +. (2.0 *. seconds) +. 10.0 in
  let round i =
    let s = start ~state_dir:(Printf.sprintf "%s-%d" state_dir i) in
    Fun.protect ~finally:(fun () -> stop s) @@ fun () ->
    let port = Server.port s.srv in
    before := Metrics.merge !before (Scheduler.metrics_snapshot s.scd);
    let next = Atomic.make 0 and results = Array.make clients [] in
    let c0 = Sampler.cpu () and t0 = Sampler.now () in
    let client k () =
      let tenant = Printf.sprintf "ci-%d" k in
      let journal = journals.(k) and trace = traces.(k) in
      match connect ~port with
      | exception (Unix.Unix_error _ as e) ->
        results.(k) <- failed_sample (Printexc.to_string e) :: results.(k)
      | c ->
        (try
           let rec loop () =
             let j = Atomic.fetch_and_add next 1 in
             if j < Array.length seeds && Sampler.now () < hard_stop then begin
               let sample =
                 in_span trace "service.campaign" (fun () ->
                     one_campaign c ~tenant ~seed:seeds.(j) ~expected:expected.(j) ~journal ~trace)
               in
               results.(k) <- sample :: results.(k);
               loop ()
             end
           in
           loop ()
         with (Http_error _ | Unix.Unix_error _ | Sys_error _ | End_of_file | Json.Parse_error _) as e ->
           results.(k) <- failed_sample (Printexc.to_string e) :: results.(k));
        close_conn c
    in
    let threads = List.init clients (fun k -> Thread.create (client k) ()) in
    List.iter Thread.join threads;
    let r_wall_s = Sampler.now () -. t0 and r_cpu_s = Sampler.cpu () -. c0 in
    after := Metrics.merge !after (Scheduler.metrics_snapshot s.scd);
    { r_samples = List.concat_map List.rev (Array.to_list results); r_wall_s; r_cpu_s }
  in
  (* stop once the next round would end nearer past the budget than the
     last one ended before it *)
  let rec go acc measured r =
    let measured = measured +. r.r_wall_s in
    if measured +. (r.r_wall_s /. 2.0) >= seconds || Sampler.now () >= hard_stop then List.rev (r :: acc)
    else begin
      between ();
      go (r :: acc) measured (round (List.length acc + 1))
    end
  in
  let first = round 0 in
  let peak_rss_mb = Sampler.peak_rss_mb () in
  let rounds = go [] 0.0 first in
  let gc = Sampler.gc_diff g0 (Sampler.gc ()) in
  Array.iter (Option.iter Journal.close) journals;
  {
    samples = List.concat_map (fun r -> r.r_samples) rounds;
    rounds;
    wall_s = List.fold_left (fun a r -> a +. r.r_wall_s) 0.0 rounds;
    gc;
    before = !before;
    after = !after;
    spans = Array.to_list (Array.map (function Some tr -> Trace.spans tr | None -> []) traces);
    peak_rss_mb;
  }
