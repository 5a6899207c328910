(* Profile trees: the span log aggregated by name-path.

   Spans record every dynamic instance; a profile folds instances with
   the same ancestry of names into one node carrying call counts, total
   and *self* milliseconds (total minus time attributed to children),
   and sums of the accounting attributes the pipeline already attaches
   ("rows", "work", "bytes").  Because children's intervals nest inside
   their parent's and never overlap, self time is non-negative per span,
   and the self times of a tree sum back exactly to its root's total —
   the invariant test_profile.ml pins.

   The renderers are read-side only: build once after the run, print a
   flame-style tree and a top-k hot-operator table (with exact
   p50/p90/p99 columns over the folded spans' durations). *)

type node = {
  name : string;
  mutable calls : int;
  mutable total_ms : float;
  mutable self_ms : float;
  mutable rows : int;
  mutable work : int;
  mutable bytes : int;
  mutable minor_words : float;
  mutable major_words : float;
  mutable durations : float list; (* finished spans' ms, newest first *)
  mutable children_rev : node list; (* reverse first-seen order *)
}

type t = { roots : node list; total_ms : float }

let fresh name =
  {
    name;
    calls = 0;
    total_ms = 0.0;
    self_ms = 0.0;
    rows = 0;
    work = 0;
    bytes = 0;
    minor_words = 0.0;
    major_words = 0.0;
    durations = [];
    children_rev = [];
  }

let children n = List.rev n.children_rev

let of_spans (spans : Span.t list) =
  (* an open (unfinished) span has no meaningful end; charge it zero *)
  let dur (s : Span.t) =
    if s.Span.finished then Span.duration_ms s else 0.0
  in
  (* per-span sum of direct children's durations, for self time *)
  let child_ms : (int, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.t) ->
      match s.Span.parent with
      | None -> ()
      | Some p ->
          let prev = try Hashtbl.find child_ms p with Not_found -> 0.0 in
          Hashtbl.replace child_ms p (prev +. dur s))
    spans;
  (* pre-order guarantees a span's parent was processed first *)
  let node_of_span : (int, node) Hashtbl.t = Hashtbl.create 64 in
  let roots_rev = ref [] in
  let find_or_add name get set =
    match List.find_opt (fun n -> n.name = name) (get ()) with
    | Some n -> n
    | None ->
        let n = fresh name in
        set (n :: get ());
        n
  in
  List.iter
    (fun (s : Span.t) ->
      let n =
        match s.Span.parent with
        | None ->
            find_or_add s.Span.name
              (fun () -> !roots_rev)
              (fun l -> roots_rev := l)
        | Some p -> (
            match Hashtbl.find_opt node_of_span p with
            | Some pn ->
                find_or_add s.Span.name
                  (fun () -> pn.children_rev)
                  (fun l -> pn.children_rev <- l)
            | None ->
                (* orphan (caller passed a partial log): treat as root *)
                find_or_add s.Span.name
                  (fun () -> !roots_rev)
                  (fun l -> roots_rev := l))
      in
      Hashtbl.replace node_of_span s.Span.id n;
      let d = dur s in
      let kids = try Hashtbl.find child_ms s.Span.id with Not_found -> 0.0 in
      n.calls <- n.calls + 1;
      n.total_ms <- n.total_ms +. d;
      n.self_ms <- n.self_ms +. Float.max 0.0 (d -. kids);
      if s.Span.finished then begin
        (* GC deltas include descendants' allocation, like total_ms *)
        n.minor_words <- n.minor_words +. s.Span.gc_minor_words;
        n.major_words <- n.major_words +. s.Span.gc_major_words;
        n.durations <- d :: n.durations
      end;
      List.iter
        (fun (k, v) ->
          match (k, v) with
          | "rows", Attr.Int i -> n.rows <- n.rows + i
          | "work", Attr.Int i -> n.work <- n.work + i
          | "bytes", Attr.Int i -> n.bytes <- n.bytes + i
          | _ -> ())
        (Span.attrs s))
    spans;
  let roots = List.rev !roots_rev in
  let total_ms =
    List.fold_left (fun acc (n : node) -> acc +. n.total_ms) 0.0 roots
  in
  { roots; total_ms }

let capture () = of_spans (Span.spans ())

let iter f t =
  let rec go path n =
    let path = path @ [ n.name ] in
    f path n;
    List.iter (go path) (children n)
  in
  List.iter (go []) t.roots

let fold f acc t =
  let acc = ref acc in
  iter (fun path n -> acc := f !acc path n) t;
  !acc

(* --- hot-operator aggregation ------------------------------------------ *)

(* Merge nodes with the same name across all paths (exec.sort under ten
   different streams is one operator), sort by self time. *)
let hot ?(top = 10) t =
  let by_name : (string, node) Hashtbl.t = Hashtbl.create 16 in
  let order_rev = ref [] in
  iter
    (fun _path n ->
      let agg =
        match Hashtbl.find_opt by_name n.name with
        | Some a -> a
        | None ->
            let a = fresh n.name in
            Hashtbl.replace by_name n.name a;
            order_rev := a :: !order_rev;
            a
      in
      agg.calls <- agg.calls + n.calls;
      agg.total_ms <- agg.total_ms +. n.total_ms;
      agg.self_ms <- agg.self_ms +. n.self_ms;
      agg.rows <- agg.rows + n.rows;
      agg.work <- agg.work + n.work;
      agg.bytes <- agg.bytes + n.bytes;
      agg.minor_words <- agg.minor_words +. n.minor_words;
      agg.major_words <- agg.major_words +. n.major_words;
      agg.durations <- List.rev_append n.durations agg.durations)
    t;
  let all = List.rev !order_rev in
  let sorted =
    List.stable_sort (fun a b -> compare b.self_ms a.self_ms) all
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  take top sorted

(* --- renderers ---------------------------------------------------------- *)

let bprintf = Printf.bprintf

let bar width frac =
  let n =
    int_of_float (Float.round (frac *. float_of_int width))
    |> max 0 |> min width
  in
  String.make n '#' ^ String.make (width - n) ' '

(* Allocation columns print in kilowords: raw word counts dwarf every
   other column, and sub-kiloword noise is not actionable. *)
let kwords w = w /. 1000.0

type gc = {
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

(* Words pool tasks promoted and allocated on other domains, added to
   the domain that awaited them, as two word counts per domain.  The
   threads of one domain share them, so the adds are atomic. *)
let awaited = Domain.DLS.new_key (fun () -> (Atomic.make 0, Atomic.make 0))

let words () =
  let _, promoted, major = Gc.counters () in
  let p, m = Domain.DLS.get awaited in
  (promoted +. float_of_int (Atomic.get p), major +. float_of_int (Atomic.get m))

let add_awaited (promoted, major) =
  let p, m = Domain.DLS.get awaited in
  ignore (Atomic.fetch_and_add p (int_of_float promoted));
  ignore (Atomic.fetch_and_add m (int_of_float major))

(* Words from [words], exact to the word as [Obs.Span]'s are;
   collections from [Gc.quick_stat], whose counts are exact too. *)
let gc_now () =
  let promoted, major = words () in
  let s = Gc.quick_stat () in
  {
    promoted_words = promoted;
    major_words = major;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let gc_since g0 =
  let g1 = gc_now () in
  {
    promoted_words = g1.promoted_words -. g0.promoted_words;
    major_words = g1.major_words -. g0.major_words;
    minor_collections = g1.minor_collections - g0.minor_collections;
    major_collections = g1.major_collections - g0.major_collections;
  }

let render_tree_to buf ?gc t =
  bprintf buf "PROFILE — %d root(s), %.3fms total" (List.length t.roots) t.total_ms;
  Option.iter
    (fun g ->
      bprintf buf
        ", GC: %.1f promoted(kw), %.1f major(kw), %d minor / %d major \
         collections"
        (kwords g.promoted_words) (kwords g.major_words) g.minor_collections
        g.major_collections)
    gc;
  Buffer.add_char buf '\n';
  bprintf buf "%6s %11s %11s %12s %12s %12s %10s %10s  %-12s %s\n" "calls"
    "total(ms)" "self(ms)" "rows" "work" "bytes" "minor(kw)" "major(kw)"
    "share" "name";
  let grand = if t.total_ms > 0.0 then t.total_ms else 1.0 in
  let rec go depth n =
    bprintf buf "%6d %11.3f %11.3f %12d %12d %12d %10.1f %10.1f  [%s] %s%s\n"
      n.calls n.total_ms n.self_ms n.rows n.work n.bytes
      (kwords n.minor_words) (kwords n.major_words)
      (bar 10 (n.total_ms /. grand))
      (String.make (2 * depth) ' ')
      n.name;
    List.iter (go (depth + 1)) (children n)
  in
  List.iter (go 0) t.roots

(* Exact nearest-rank percentile of ascending samples, 0 when empty. *)
let percentile_of_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let i = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    a.(max 0 (min (n - 1) i))

let pct_cell buf n =
  match n.durations with
  | [] -> bprintf buf " %9s %9s %9s" "-" "-" "-"
  | ds ->
      let a = Array.of_list ds in
      Array.sort Float.compare a;
      let p = percentile_of_sorted a in
      bprintf buf " %9.3f %9.3f %9.3f" (p 0.50) (p 0.90) (p 0.99)

let render_hot_to buf ?(top = 10) t =
  let rows = hot ~top t in
  bprintf buf "HOT OPERATORS — top %d by self time (exact percentiles of \
               span durations)\n"
    (List.length rows);
  bprintf buf "%-28s %6s %11s %11s %9s %9s %9s %12s %12s %10s %10s\n" "name"
    "calls" "self(ms)" "total(ms)" "p50" "p90" "p99" "rows" "work" "minor(kw)"
    "major(kw)";
  List.iter
    (fun n ->
      bprintf buf "%-28s %6d %11.3f %11.3f" n.name n.calls n.self_ms
        n.total_ms;
      pct_cell buf n;
      bprintf buf " %12d %12d %10.1f %10.1f\n" n.rows n.work
        (kwords n.minor_words) (kwords n.major_words))
    rows

let render_hot ?top t =
  let buf = Buffer.create 1024 in
  render_hot_to buf ?top t;
  Buffer.contents buf

let render ?top ?gc t =
  let buf = Buffer.create 2048 in
  render_tree_to buf ?gc t;
  Buffer.add_char buf '\n';
  render_hot_to buf ?top t;
  Buffer.contents buf
