(* One sampler for every workload: order statistics over repeated
   samples, process CPU time, peak RSS and the core count the run had. *)

let now = Unix.gettimeofday

(* User + system CPU seconds of the whole process (every domain and
   thread). *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Linear-interpolation quantile (the "inclusive" definition): [q] in
   [0, 1] over the sorted samples. *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

type summary = { n : int; median : float; q1 : float; q3 : float; min : float; max : float }

let summarize xs =
  {
    n = List.length xs;
    median = median xs;
    q1 = quantile 0.25 xs;
    q3 = quantile 0.75 xs;
    min = quantile 0.0 xs;
    max = quantile 1.0 xs;
  }

let pp_summary name unit s =
  Printf.printf "  %-26s median %.6f %s  [q1 %.6f, q3 %.6f]  min %.6f  max %.6f  n=%d\n" name
    s.median unit s.q1 s.q3 s.min s.max s.n

(* Peak resident set of this process in MiB, from the kernel's high-water
   mark; falls back to the OCaml heap's top size off Linux. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                Some (float_of_int kb /. 1024.0))
          | Some _ -> scan ()
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

(* Cores this process may use: the runtime's recommendation, capped by the
   affinity-mask count the launcher measured ([nproc]).  A parallel figure
   is flagged [cores_limited] exactly when the workload asks for more
   workers than this — never from the measured speedup. *)
type cores = { nproc : int; recommended : int; available : int }

let cores ~nproc =
  let recommended = Domain.recommended_domain_count () in
  let nproc = if nproc > 0 then nproc else recommended in
  { nproc; recommended; available = min nproc recommended }

let cores_limited c ~jobs = jobs > c.available

(* Minor-heap and collection counters, for per-rep deltas. *)
type gc = { minor_collections : int; major_collections : int; minor_words : float; promoted_words : float }

let gc () =
  let s = Gc.quick_stat () in
  {
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
  }

let gc_diff a b =
  {
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
  }
