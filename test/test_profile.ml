(* The performance observatory: percentile estimation from fixed-bucket
   histograms, bucket-index binary search, exact hot-table percentiles,
   and profile-tree invariants
   (self_ms >= 0 everywhere; self times sum back to the root's total) on
   nested, exception-unwound and unbalanced traces. *)

(* Deterministic clock: every reading advances by 1µs (same scheme as
   test_obs.ml), so durations are exact and the profile invariants can
   be checked with tight tolerances. *)
let install_test_clock () =
  let t = ref 0L in
  Obs.Clock.set_source (fun () ->
      t := Int64.add !t 1_000L;
      !t)

let with_obs f =
  install_test_clock ();
  Obs.Span.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.reset ();
      Obs.Clock.use_default ())
    (fun () -> Obs.Control.with_enabled true f)

let feq = Alcotest.(check (float 1e-9))

(* --- percentiles -------------------------------------------------------- *)

let hist ?(bounds = [| 1.0; 4.0; 16.0 |]) xs =
  let h = Obs.Histogram.create bounds in
  List.iter (Obs.Histogram.observe h) xs;
  h

let test_percentile_empty () =
  let h =
    { Obs.Histogram.bounds = [| 1.0; 2.0 |]; counts = [| 0; 0; 0 |];
      sum = 0.0; n = 0 }
  in
  Alcotest.(check (option (float 0.0))) "empty histogram" None
    (Obs.Histogram.percentile h 0.5);
  Alcotest.(check bool) "empty summary" true (Obs.Histogram.p50_90_99 h = None);
  (* bounds-less histograms have no information to interpolate *)
  let unbounded =
    { Obs.Histogram.bounds = [||]; counts = [| 3 |]; sum = 30.0; n = 3 }
  in
  Alcotest.(check (option (float 0.0))) "no bounds" None
    (Obs.Histogram.percentile unbounded 0.5)

let test_percentile_single () =
  (* one observation at 5.0 lands in (4,16]; every percentile must stay
     inside that bucket, and the median is its geometric midpoint *)
  let h = hist [ 5.0 ] in
  (match Obs.Histogram.percentile h 0.5 with
  | Some p ->
      feq "p50 is the geometric midpoint" 8.0 p
  | None -> Alcotest.fail "p50 missing");
  List.iter
    (fun q ->
      match Obs.Histogram.percentile h q with
      | Some p ->
          Alcotest.(check bool)
            (Printf.sprintf "q=%g inside bucket" q)
            true
            (p > 4.0 -. 1e-9 && p <= 16.0 +. 1e-9)
      | None -> Alcotest.fail "percentile missing")
    [ 0.01; 0.5; 0.9; 0.99; 1.0 ]

let test_percentile_overflow () =
  (* observations beyond the last bound: the estimate degrades to the
     last bound — a conservative lower bound, never an extrapolation *)
  let h = hist [ 100.0; 200.0; 1e9 ] in
  List.iter
    (fun q -> feq (Printf.sprintf "q=%g" q) 16.0
        (Option.get (Obs.Histogram.percentile h q)))
    [ 0.5; 0.99 ];
  (* mixed: p50 still interpolates in a real bucket, p99 hits overflow *)
  let h2 = hist [ 2.0; 3.0; 5.0; 1e9 ] in
  (match Obs.Histogram.percentile h2 0.5 with
  | Some p -> Alcotest.(check bool) "p50 in (1,4]" true (p > 1.0 && p <= 4.0)
  | None -> Alcotest.fail "p50 missing");
  feq "p99 reports last bound" 16.0
    (Option.get (Obs.Histogram.percentile h2 0.99))

let test_percentile_custom_bounds () =
  (* first bucket has no positive lower edge: interpolation is linear
     from zero, so five observations at ≤10 put the median at 5.0 *)
  let h = hist ~bounds:[| 10.0; 20.0 |] [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  feq "linear from zero" 5.0 (Option.get (Obs.Histogram.percentile h 0.5));
  (* log-linear inside a positive bucket: exact closed forms *)
  let h2 = hist ~bounds:[| 1.0; 10.0; 100.0 |] [ 0.5; 5.0; 20.0; 30.0 ] in
  feq "p50 at a bucket edge" 10.0
    (Option.get (Obs.Histogram.percentile h2 0.5));
  Alcotest.(check (float 1e-6)) "p90 log-interpolated"
    (10.0 ** 1.8)
    (Option.get (Obs.Histogram.percentile h2 0.9))

let test_bucket_index_matches_linear () =
  let linear bounds x =
    let nb = Array.length bounds in
    let rec idx i = if i >= nb || x <= bounds.(i) then i else idx (i + 1) in
    idx 0
  in
  let check_all bounds xs =
    List.iter
      (fun x ->
        Alcotest.(check int)
          (Printf.sprintf "x=%g" x)
          (linear bounds x)
          (Obs.Histogram.bucket_index bounds x))
      xs
  in
  let powers_of_four = Array.init 12 (fun i -> 4.0 ** float_of_int i) in
  let edges =
    Array.to_list powers_of_four
    |> List.concat_map (fun b -> [ b -. 1e-9; b; b +. 1e-9 ])
  in
  check_all powers_of_four ([ -1.0; 0.0; 0.5; 1e12; infinity ] @ edges);
  (* a deterministic pseudo-random sweep *)
  let state = ref 7 in
  let rand () =
    state := ((1103515245 * !state) + 12345) land 0x3FFFFFFF;
    float_of_int !state /. 64.0
  in
  check_all powers_of_four (List.init 500 (fun _ -> rand ()));
  check_all Obs.Histogram.duration_bounds (List.init 500 (fun _ -> rand () /. 1e6));
  (* degenerate bounds *)
  check_all [||] [ 0.0; 5.0 ];
  check_all [| 3.0 |] [ 2.0; 3.0; 4.0 ]

(* --- profile trees ------------------------------------------------------ *)

let rec sum_self (n : Obs.Profile.node) =
  List.fold_left
    (fun acc c -> acc +. sum_self c)
    n.Obs.Profile.self_ms
    (Obs.Profile.children n)

let rec assert_nonneg (n : Obs.Profile.node) =
  Alcotest.(check bool)
    (n.Obs.Profile.name ^ ": self_ms >= 0")
    true
    (n.Obs.Profile.self_ms >= 0.0);
  Alcotest.(check bool)
    (n.Obs.Profile.name ^ ": self <= total")
    true
    (n.Obs.Profile.self_ms <= n.Obs.Profile.total_ms +. 1e-9);
  List.iter assert_nonneg (Obs.Profile.children n)

let check_invariants (t : Obs.Profile.t) =
  List.iter
    (fun (root : Obs.Profile.node) ->
      assert_nonneg root;
      feq
        (root.Obs.Profile.name ^ ": self times sum to root total")
        root.Obs.Profile.total_ms (sum_self root))
    t.Obs.Profile.roots

let test_profile_nested () =
  with_obs (fun () ->
      Obs.Span.with_span "root" (fun () ->
          Obs.Span.with_span "a" (fun () ->
              Obs.Span.with_span "leaf" (fun () -> ());
              Obs.Span.with_span "leaf" (fun () -> ()));
          Obs.Span.with_span "b" (fun () -> ()));
      let t = Obs.Profile.capture () in
      check_invariants t;
      Alcotest.(check int) "one root" 1 (List.length t.Obs.Profile.roots);
      let root = List.hd t.Obs.Profile.roots in
      feq "grand total = root total" root.Obs.Profile.total_ms
        t.Obs.Profile.total_ms;
      let a =
        List.find
          (fun (n : Obs.Profile.node) -> n.Obs.Profile.name = "a")
          (Obs.Profile.children root)
      in
      let leaf = List.hd (Obs.Profile.children a) in
      Alcotest.(check int) "two leaf calls folded into one node" 2
        leaf.Obs.Profile.calls;
      (* test clock: every span interval is exactly 1µs per enclosed
         reading, so the leaf node's total is exactly 2 × 0.001 ms *)
      feq "leaf total" 0.002 leaf.Obs.Profile.total_ms;
      feq "leaf self = total (no children)" leaf.Obs.Profile.total_ms
        leaf.Obs.Profile.self_ms)

let test_profile_attr_sums () =
  with_obs (fun () ->
      Obs.Span.with_span "op" ~attrs:[ Obs.Attr.int "rows" 10 ] (fun () ->
          Obs.Span.add "work" (Obs.Attr.Int 100);
          Obs.Span.add "bytes" (Obs.Attr.Int 7));
      Obs.Span.with_span "op" ~attrs:[ Obs.Attr.int "rows" 5 ] (fun () ->
          Obs.Span.add "work" (Obs.Attr.Int 50);
          (* non-integer and unknown attrs must be ignored, not summed *)
          Obs.Span.add "rows" (Obs.Attr.String "not-a-count");
          Obs.Span.add "other" (Obs.Attr.Int 999));
      let t = Obs.Profile.capture () in
      let op = List.hd t.Obs.Profile.roots in
      Alcotest.(check int) "calls" 2 op.Obs.Profile.calls;
      Alcotest.(check int) "rows summed" 15 op.Obs.Profile.rows;
      Alcotest.(check int) "work summed" 150 op.Obs.Profile.work;
      Alcotest.(check int) "bytes summed" 7 op.Obs.Profile.bytes)

let test_profile_exception_unwound () =
  with_obs (fun () ->
      (try
         Obs.Span.with_span "root" (fun () ->
             Obs.Span.with_span "a" (fun () ->
                 Obs.Span.with_span "deep" (fun () -> failwith "boom")))
       with Failure _ -> ());
      (* a sibling trace after the unwind *)
      Obs.Span.with_span "root" (fun () ->
          Obs.Span.with_span "b" (fun () -> ()));
      let t = Obs.Profile.capture () in
      check_invariants t;
      Alcotest.(check int) "both runs folded into one root" 1
        (List.length t.Obs.Profile.roots);
      Alcotest.(check int) "root calls" 2
        (List.hd t.Obs.Profile.roots).Obs.Profile.calls)

let test_profile_unbalanced () =
  with_obs (fun () ->
      (* multiple roots with repeated names, interleaved depths *)
      Obs.Span.with_span "x" (fun () ->
          Obs.Span.with_span "y" (fun () ->
              Obs.Span.with_span "y" (fun () -> ())));
      Obs.Span.with_span "z" (fun () -> ());
      Obs.Span.with_span "x" (fun () -> ());
      let t = Obs.Profile.capture () in
      check_invariants t;
      Alcotest.(check (list string)) "roots in first-seen order" [ "x"; "z" ]
        (List.map
           (fun (n : Obs.Profile.node) -> n.Obs.Profile.name)
           t.Obs.Profile.roots);
      (* an orphan (parent filtered away) is promoted to a root rather
         than dropped or crashing the build *)
      let spans = Obs.Span.spans () in
      let partial =
        List.filter (fun (s : Obs.Span.t) -> s.Obs.Span.depth <> 1) spans
      in
      let t' = Obs.Profile.of_spans partial in
      Alcotest.(check bool) "orphan promoted to root" true
        (List.exists
           (fun (n : Obs.Profile.node) -> n.Obs.Profile.name = "y")
           t'.Obs.Profile.roots);
      List.iter assert_nonneg t'.Obs.Profile.roots)

let test_profile_unfinished_span () =
  with_obs (fun () ->
      (* capture *inside* an open span: the open span is charged zero,
         finished children keep their time, nothing goes negative *)
      Obs.Span.with_span "open" (fun () ->
          Obs.Span.with_span "done" (fun () -> ());
          let t = Obs.Profile.capture () in
          List.iter assert_nonneg t.Obs.Profile.roots;
          let root = List.hd t.Obs.Profile.roots in
          feq "open span charged zero total" 0.0 root.Obs.Profile.total_ms))

let test_profile_hot () =
  with_obs (fun () ->
      (* "op" appears under two different parents; hot merges by name *)
      Obs.Span.with_span "p1" (fun () ->
          Obs.Span.with_span "op" (fun () ->
              Obs.Span.add "work" (Obs.Attr.Int 1)));
      Obs.Span.with_span "p2" (fun () ->
          Obs.Span.with_span "op" (fun () ->
              Obs.Span.add "work" (Obs.Attr.Int 2));
          Obs.Span.with_span "op" (fun () -> ()));
      let t = Obs.Profile.capture () in
      let hot = Obs.Profile.hot ~top:100 t in
      let op =
        List.find (fun (n : Obs.Profile.node) -> n.Obs.Profile.name = "op") hot
      in
      Alcotest.(check int) "op merged across parents" 3 op.Obs.Profile.calls;
      Alcotest.(check int) "op work merged" 3 op.Obs.Profile.work;
      (* the hot table's percentiles are exact, over these durations *)
      Alcotest.(check (list (float 1e-9))) "one duration per op span"
        [ 0.001; 0.001; 0.001 ] op.Obs.Profile.durations;
      let pct = Obs.Profile.percentile_of_sorted [| 1.0; 2.0; 3.0; 4.0 |] in
      feq "nearest-rank p50" 3.0 (pct 0.5);
      feq "p0 is the least" 1.0 (pct 0.0);
      feq "p99 is the greatest" 4.0 (pct 0.99);
      feq "no samples" 0.0 (Obs.Profile.percentile_of_sorted [||] 0.5);
      (* sorted by self time, descending *)
      let selfs = List.map (fun (n : Obs.Profile.node) -> n.Obs.Profile.self_ms) hot in
      Alcotest.(check (list (float 1e-9))) "descending self order"
        (List.sort (fun a b -> compare b a) selfs)
        selfs;
      Alcotest.(check int) "top-1 truncates" 1
        (List.length (Obs.Profile.hot ~top:1 t)))

(* --- jsonl rebasing ----------------------------------------------------- *)

let test_jsonl_rebased_starts () =
  with_obs (fun () ->
      Obs.Span.with_span "a" (fun () ->
          Obs.Span.with_span "b" (fun () -> ()));
      Obs.Span.with_span "c" (fun () -> ());
      let span_starts =
        List.filter_map
          (fun line ->
            let j = Obs.Json.parse line in
            if Obs.Json.member "type" j = Some (Obs.Json.String "span") then
              match Obs.Json.member "start_ns" j with
              | Some (Obs.Json.Int s) -> Some s
              | _ -> Alcotest.fail "span without int start_ns"
            else None)
          (Obs.Jsonl.to_lines ())
      in
      (match span_starts with
      | first :: _ -> Alcotest.(check int) "first span starts at 0" 0 first
      | [] -> Alcotest.fail "no spans exported");
      Alcotest.(check bool) "starts non-decreasing" true
        (List.sort compare span_starts = span_starts);
      (* profile records ride along in the export *)
      let profile_lines =
        List.filter
          (fun line ->
            Obs.Json.member "type" (Obs.Json.parse line)
            = Some (Obs.Json.String "profile"))
          (Obs.Jsonl.to_lines ())
      in
      Alcotest.(check int) "one profile record per name-path" 3
        (List.length profile_lines))

(* The header's GC record reads the exact counters the spans read, so
   over a whole run its major words cover the roots' spans: none of
   the major heap's words may go missing between minor collections.
   With a pool of two domains the streams' spans run on the workers,
   and the record covers them too. *)
let test_gc_header_covers_roots () =
  let module M = Silkroute.Middleware in
  let db = Tpch.Gen.generate (Tpch.Gen.config 1.0) in
  let major_of name (n : Obs.Profile.node) =
    if n.Obs.Profile.name = name then n.Obs.Profile.major_words else 0.0
  in
  let check_run ~domains =
    Obs.Span.reset ();
    Obs.Control.with_enabled true (fun () ->
        let g0 = Obs.Profile.gc_now () in
        let p = M.prepare_text db Silkroute.Queries.query1_text in
        let e =
          Relational.Domain_pool.with_pool ~domains (fun pool ->
              M.execute ~reduce:false ~pool p
                (M.partition_of ~reduce:false p M.Fully_partitioned))
        in
        ignore (M.xml_string_of p e);
        let gc = Obs.Profile.gc_since g0 in
        let profile = Obs.Profile.capture () in
        let sum f =
          Obs.Profile.fold (fun acc _ n -> acc +. f n) 0.0 profile
        in
        let roots =
          List.fold_left
            (fun acc (n : Obs.Profile.node) -> acc +. n.major_words)
            0.0 profile.Obs.Profile.roots
        in
        let streams = sum (major_of "execute.stream") in
        (* a span reads its own domain's counters: on a pool with
           workers the roots' words leave out the streams' *)
        let covered = if domains = 1 then roots else roots +. streams in
        Alcotest.(check bool)
          (Printf.sprintf
             "%d domain(s): header %.0f major words >= %.0f (roots %.0f, \
              streams %.0f)"
             domains gc.Obs.Profile.major_words covered roots streams)
          true
          (streams > 0.0 && gc.Obs.Profile.major_words >= covered);
        let header =
          List.hd (String.split_on_char '\n' (Obs.Profile.render ~gc profile))
        in
        let major =
          Printf.sprintf "%.1f major(kw)" (gc.Obs.Profile.major_words /. 1000.0)
        in
        Alcotest.(check bool) (header ^ " prints " ^ major) true
          (let n = String.length major in
           let rec at i =
             i + n <= String.length header
             && (String.sub header i n = major || at (i + 1))
           in
           at 0))
  in
  Obs.Span.use_default_gc_source ();
  Fun.protect ~finally:Obs.Span.reset (fun () ->
      check_run ~domains:1;
      check_run ~domains:2)

let suite =
  [
    Alcotest.test_case "profile: GC header covers the roots' major words"
      `Quick test_gc_header_covers_roots;
    Alcotest.test_case "percentile: empty histogram" `Quick
      test_percentile_empty;
    Alcotest.test_case "percentile: single observation" `Quick
      test_percentile_single;
    Alcotest.test_case "percentile: overflow bucket" `Quick
      test_percentile_overflow;
    Alcotest.test_case "percentile: custom bounds" `Quick
      test_percentile_custom_bounds;
    Alcotest.test_case "bucket_index matches linear scan" `Quick
      test_bucket_index_matches_linear;
    Alcotest.test_case "profile: nested trace invariants" `Quick
      test_profile_nested;
    Alcotest.test_case "profile: attribute sums" `Quick test_profile_attr_sums;
    Alcotest.test_case "profile: exception-unwound trace" `Quick
      test_profile_exception_unwound;
    Alcotest.test_case "profile: unbalanced traces and orphans" `Quick
      test_profile_unbalanced;
    Alcotest.test_case "profile: capture inside an open span" `Quick
      test_profile_unfinished_span;
    Alcotest.test_case "profile: hot-operator aggregation" `Quick
      test_profile_hot;
    Alcotest.test_case "jsonl: rebased monotonic starts + profile records"
      `Quick test_jsonl_rebased_starts;
  ]
