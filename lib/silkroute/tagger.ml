(* The XML tagger (paper Sec. 3.3).

   Merges the sorted tuple streams of a plan's fragments into one stream
   (under the view tree's global sort-attribute order), re-nests the
   tuples and emits tags.  The pass is single-scan: memory is bounded by
   the view-tree depth and the per-element pending list (text payloads
   and reduction-fused children awaiting their document position), never
   by the database size.

   Each tuple denotes a path of node instances: its L columns spell the
   Skolem-function-index prefix, its variable columns carry the Skolem
   term values.  The tagger keeps a stack of open elements; a tuple
   closes elements up to the deepest ancestor it shares with the stack
   and opens the remainder of its path.  Text contents and fused children
   are held per open element as pending items ordered by their sibling
   index and flushed when a later sibling arrives or the element
   closes.

   Streams are consumed through pull cursors and merged with a tree of
   losers carrying offset-value codes (Conner 1977; Graefe and Do, EDBT
   2023).  A tuple's merge key is the sequence of steps the hierarchical
   order reads: L1, the key variables of the level-1 node, L2, the
   level-2 node's keys, and so on until the path ends.  Every stream head
   carries a code relative to the last tuple out of the merge: the first
   step at which the two differ, that step's level, and the column
   holding the head's value there.  A match in the tree is won by the
   larger offset; at equal offsets the two values at that step are
   compared, and only equal values fall back to a column walk from the
   root, which also re-codes the loser.  Fully equal heads go to the
   earlier stream, so the merge order is the one a left-to-right scan
   selects.  The winner's code also says how much of the open-element
   stack it shares with the previous tuple: every level above the
   differing step.

   Everything a tuple is read through — L columns, each node's key
   variables, text contents, the (parent, SFI component) -> node map —
   is resolved to array indices once per stream or per call, so the
   per-tuple loop does array reads and value comparisons only, and
   allocates nothing beyond the pending items of the elements it opens.
   Texts stay values until a sink writes them: the string and channel
   writers format an Int straight into their output, escape a String in
   place and write each tag as one string rendered once per call. *)

module R = Relational

type sink = {
  on_open : int -> unit;
  on_text : R.Value.t -> unit;
  on_close : int -> unit;
}

let root = -1

let tag_of tree id =
  if id = root then tree.View_tree.root_tag else (View_tree.node tree id).View_tree.tag

(* --- pending items ----------------------------------------------------- *)

type pending_item = { index : int; payload : payload }

and payload =
  | Text_payload of R.Value.t
  | Fused_payload of fused_elem

and fused_elem = { fnode : int; mutable fpending : pending_item list }

(* Emit a fused element and everything pending inside it. *)
let rec emit_fused sink (f : fused_elem) =
  sink.on_open f.fnode;
  emit_items sink f.fpending;
  f.fpending <- [];
  sink.on_close f.fnode

and emit_payload sink = function
  | Text_payload v -> sink.on_text v
  | Fused_payload f -> emit_fused sink f

and emit_items sink = function
  | [] -> ()
  | item :: rest ->
      emit_payload sink item.payload;
      emit_items sink rest

(* Emit the pending items with index < threshold — a prefix, as the list
   is sorted by index — and return the rest. *)
let rec flush_before sink threshold = function
  | item :: rest when item.index < threshold ->
      emit_payload sink item.payload;
      flush_before sink threshold rest
  | rest -> rest

(* --- streams ------------------------------------------------------------ *)

(* What a freshly opened element of a node holds pending, resolved once
   per stream against its columns: text contents and fused children,
   sorted by index. *)
type template =
  | Text_const of int * R.Value.t (* index, text *)
  | Text_col of int * int (* index, column or -1 *)
  | Fused of int * int (* index, fused child node *)

let template_index = function
  | Text_const (i, _) | Text_col (i, _) | Fused (i, _) -> i

(* The two code offsets that are not steps: a head equal to the last
   tuple out (it beats every other code), and an exhausted stream (it
   loses to every other code). *)
let code_equal = max_int
let code_exhausted = -1

(* Every name a stream's tuples are read through is resolved to a column
   index here, once per stream; -1 marks a column the stream does not
   carry, which reads as NULL.  [off], [lvl] and [vcol] are the head's
   offset-value code relative to the last tuple out of the merge; all
   three are ints, so re-coding a head writes no pointer. *)
type stream_state = {
  sid : int; (* position in the stream list; merge tie-break *)
  root_tag : string; (* the fragment root's tag, for errors *)
  cursor : R.Cursor.t;
  mutable head : R.Tuple.t; (* the next tuple, while [live] *)
  mutable live : bool;
  mutable off : int; (* first differing step, or a sentinel *)
  mutable lvl : int; (* that step's level *)
  mutable vcol : int; (* the head's column at that step, or -1 *)
  level_idx : int array; (* per level 1..max: column index or -1 *)
  key_idx : int array array; (* per node: column of each key var, or -1 *)
  templates : template list array; (* per node; [] outside the fragment *)
}

let max_level tree =
  Array.fold_left (fun m n -> max m (View_tree.level n)) 0 tree.View_tree.nodes

let level_col st j = if j < Array.length st.level_idx then st.level_idx.(j) else -1

let build_stream_state tree sid (desc : Sql_gen.stream) (cur : R.Cursor.t) :
    stream_state =
  let cols = desc.Sql_gen.cols in
  let find_col k =
    let rec go i =
      if i >= Array.length cols then -1
      else if cols.(i) = k then i
      else go (i + 1)
    in
    go 0
  in
  let var_col v = find_col (Sql_gen.Var_col v) in
  let level_idx =
    Array.init (max_level tree + 1) (fun j ->
        if j = 0 then -1 else find_col (Sql_gen.Level_col j))
  in
  let key_idx =
    Array.map
      (fun (n : View_tree.node) ->
        Array.of_list (List.map var_col n.View_tree.key_vars))
      tree.View_tree.nodes
  in
  let fragment = desc.Sql_gen.fragment in
  let members = fragment.Partition.members in
  let template (n : View_tree.node) =
    let id = n.View_tree.id in
    if not (List.mem id members) then []
    else
      let texts =
        List.map
          (fun (index, c) ->
            match c with
            | View_tree.Content_const v -> Text_const (index, v)
            | View_tree.Content_var v -> Text_col (index, var_col v))
          n.View_tree.contents
      in
      let fused =
        match Reduce.group_of desc.Sql_gen.groups id with
        | g ->
            List.map
              (fun m -> Fused ((View_tree.node tree m).View_tree.sibling_index, m))
              (Reduce.fused_children tree g id)
        | exception Not_found -> []
      in
      List.stable_sort
        (fun a b -> compare (template_index a) (template_index b))
        (texts @ fused)
  in
  if R.Cursor.arity cur <> Array.length cols then
    invalid_arg "Tagger: cursor arity does not match stream descriptor";
  let st =
    {
      sid;
      root_tag = (View_tree.node tree fragment.Partition.root).View_tree.tag;
      cursor = cur;
      head = [||];
      live = false;
      off = code_exhausted;
      lvl = 0;
      vcol = -1;
      level_idx;
      key_idx;
      templates = Array.map template tree.View_tree.nodes;
    }
  in
  (* the first head is coded against a tuple below every tuple: it
     differs at step 0, which reads L1 *)
  (match R.Cursor.next cur with
  | Some t ->
      st.head <- t;
      st.live <- true;
      st.off <- 0;
      st.lvl <- 1;
      st.vcol <- level_col st 1
  | None -> ());
  st

let col (t : R.Tuple.t) i = if i < 0 then R.Value.Null else t.(i)

(* Build the pending list for a freshly opened element from the stream's
   template for its node, reading text columns off the current tuple. *)
let rec instantiate st t = function
  | [] -> []
  | template :: rest ->
      let item =
        match template with
        | Text_const (index, v) -> { index; payload = Text_payload v }
        | Text_col (index, i) -> { index; payload = Text_payload (col t i) }
        | Fused (index, m) ->
            {
              index;
              payload =
                Fused_payload
                  { fnode = m; fpending = instantiate st t st.templates.(m) };
            }
      in
      item :: instantiate st t rest

(* --- context -------------------------------------------------------------- *)

(* The open-element stack is two root-first arrays sized by the view-tree
   depth, one of nodes and one of pending lists (sorted by index), with
   [depth] tracked incrementally.  [children] replaces the (parent, SFI
   component) -> node lookup by two array reads.  A column walk leaves
   the step it stopped at in the [w_*] fields. *)
type ctx = {
  tree : View_tree.t;
  sink : sink;
  children : int array array; (* parent id + 1 -> component -> id or -1 *)
  nodes : int array; (* nodes.(0) is the outermost open element *)
  pending : pending_item list array;
  mutable depth : int; (* open elements = 0 .. depth-1 *)
  mutable w_step : int;
  mutable w_level : int;
  mutable w_col_a : int;
  mutable w_col_b : int;
  mutable full_compares : int; (* ties only a column walk settled *)
}

(* Last component of a node's Skolem-function index — O(|sfi|) single
   pass, with a descriptive error instead of [List.nth]'s anonymous
   [Failure "nth"] on an empty index. *)
let last_sfi_component (n : View_tree.node) =
  let rec last = function
    | [ x ] -> x
    | _ :: rest -> last rest
    | [] ->
        invalid_arg
          (Printf.sprintf
             "Tagger: node %d (<%s>) has an empty Skolem-function index"
             n.View_tree.id n.View_tree.tag)
  in
  last n.View_tree.sfi

let make_ctx tree sink =
  let nodes = tree.View_tree.nodes in
  let parent_slot (n : View_tree.node) =
    match n.View_tree.parent with Some p -> p + 1 | None -> 0
  in
  let width = Array.make (Array.length nodes + 1) 0 in
  Array.iter
    (fun n ->
      let p = parent_slot n in
      width.(p) <- max width.(p) (last_sfi_component n + 1))
    nodes;
  let children = Array.map (fun w -> Array.make w (-1)) width in
  Array.iter
    (fun n -> children.(parent_slot n).(last_sfi_component n) <- n.View_tree.id)
    nodes;
  let depth = max_level tree + 1 in
  {
    tree;
    sink;
    children;
    nodes = Array.make depth (-1);
    pending = Array.make depth [];
    depth = 0;
    w_step = 0;
    w_level = 0;
    w_col_a = -1;
    w_col_b = -1;
    full_compares = 0;
  }

let child ctx parent comp =
  let row = ctx.children.(parent + 1) in
  if comp >= 0 && comp < Array.length row then row.(comp) else -1

(* --- column walk ----------------------------------------------------------- *)

let found ctx step j ca cb c =
  ctx.w_step <- step;
  ctx.w_level <- j;
  ctx.w_col_a <- ca;
  ctx.w_col_b <- cb;
  c

(* The hierarchical order, walked from the root over [ta] (read through
   [sa]'s columns) and [tb] (through [sb]'s): at each level the L
   component, then — only when the components agree — the key variables
   of that path node.  Key variables of sibling nodes never participate,
   so streams that do not carry them (they would read NULL) cannot be
   mis-ordered against streams that do.  A tuple whose path is a prefix
   of another's sorts first (parent rows precede child rows).  Returns
   the sign of the first difference, leaving its step, level and the two
   columns in [ctx.w_*]; 0 where the paths end together (a NULL or
   non-Int L, or an unknown component).  [==] values are equal without a
   compare. *)
let rec walk_level ctx sa ta sb tb parent j step =
  let ca = level_col sa j and cb = level_col sb j in
  let la = col ta ca and lb = col tb cb in
  let c = if la == lb then 0 else R.Value.compare_total la lb in
  if c <> 0 then found ctx step j ca cb c
  else
    match la with
    | R.Value.Int comp ->
        let id = child ctx parent comp in
        if id < 0 then 0 else walk_keys ctx sa ta sb tb id j (step + 1) 0
    | _ -> 0

and walk_keys ctx sa ta sb tb id j step i =
  let ka = sa.key_idx.(id) in
  if i >= Array.length ka then walk_level ctx sa ta sb tb id (j + 1) step
  else
    let ca = ka.(i) and cb = sb.key_idx.(id).(i) in
    let va = col ta ca and vb = col tb cb in
    let c = if va == vb then 0 else R.Value.compare_total va vb in
    if c <> 0 then found ctx step j ca cb c
    else walk_keys ctx sa ta sb tb id j (step + 1) (i + 1)

let walk ctx sa ta sb tb = walk_level ctx sa ta sb tb (-1) 1 0

(* --- tree of losers -------------------------------------------------------- *)

(* Take the stream's next tuple and code it against the one it follows,
   which is the tuple just out of the merge. *)
let advance ctx st =
  let prev = st.head in
  match R.Cursor.next st.cursor with
  | None ->
      st.live <- false;
      st.off <- code_exhausted
  | Some t ->
      st.head <- t;
      let c = walk ctx st t st prev in
      if c > 0 then begin
        st.off <- ctx.w_step;
        st.lvl <- ctx.w_level;
        st.vcol <- ctx.w_col_a
      end
      else if c = 0 then st.off <- code_equal
      else
        invalid_arg
          (Printf.sprintf
             "Tagger: stream %d (fragment <%s>) is out of order: a tuple \
              sorts before the one it follows"
             st.sid st.root_tag)

(* Does head [a] beat head [b]?  Both are coded against the same tuple;
   the loser ends coded against the winner.  The order is (hierarchical
   order, stream position). *)
let beats ctx a b =
  if a.off <> b.off then a.off > b.off
  else if a.off = code_equal || a.off = code_exhausted then a.sid < b.sid
  else
    let va = col a.head a.vcol and vb = col b.head b.vcol in
    let c = if va == vb then 0 else R.Value.compare_total va vb in
    if c <> 0 then c < 0
    else begin
      ctx.full_compares <- ctx.full_compares + 1;
      let c = walk ctx a a.head b b.head in
      let a_wins = c < 0 || (c = 0 && a.sid < b.sid) in
      let loser = if a_wins then b else a in
      if c = 0 then loser.off <- code_equal
      else begin
        loser.off <- ctx.w_step;
        loser.lvl <- ctx.w_level;
        loser.vcol <- (if a_wins then ctx.w_col_b else ctx.w_col_a)
      end;
      a_wins
    end

(* Stream [i] is leaf [k + i]; node [p]'s parent is [p / 2], node 1 is
   the root, and [losers.(p)] is the stream that lost the match at [p].
   The layout holds for any k. *)
type merge = {
  states : stream_state array;
  losers : int array;
  mutable winner : int; (* -1 when there are no streams *)
}

let build_merge ctx states =
  let k = Array.length states in
  let losers = Array.make (max k 1) (-1) in
  let winners = Array.make (2 * k) (-1) in
  for i = 0 to k - 1 do
    winners.(k + i) <- i
  done;
  for p = k - 1 downto 1 do
    let a = winners.(2 * p) and b = winners.((2 * p) + 1) in
    let w, l = if beats ctx states.(a) states.(b) then (a, b) else (b, a) in
    winners.(p) <- w;
    losers.(p) <- l
  done;
  { states; losers; winner = (if k = 0 then -1 else winners.(1)) }

(* The winner's stream has a new head: replay its leaf-to-root path. *)
let replay ctx m =
  let w = ref m.winner in
  let p = ref ((Array.length m.states + !w) / 2) in
  while !p >= 1 do
    let l = m.losers.(!p) in
    if not (beats ctx m.states.(!w) m.states.(l)) then begin
      m.losers.(!p) <- !w;
      w := l
    end;
    p := !p / 2
  done;
  m.winner <- !w

(* --- re-nesting ------------------------------------------------------------ *)

let close_one ctx =
  if ctx.depth > 0 then begin
    let d = ctx.depth - 1 in
    emit_items ctx.sink ctx.pending.(d);
    ctx.pending.(d) <- [];
    ctx.sink.on_close ctx.nodes.(d);
    ctx.depth <- d
  end

let rec close_to_depth ctx depth =
  if ctx.depth > depth then begin
    close_one ctx;
    close_to_depth ctx depth
  end

(* The first fused child of node [id] pending in a list, if any. *)
let rec find_fused id = function
  | [] -> None
  | { payload = Fused_payload f; _ } :: _ when f.fnode = id -> Some f
  | _ :: rest -> find_fused id rest

(* Open element [id] under the current stack top. *)
let open_element ctx st t id =
  let n = View_tree.node ctx.tree id in
  (* flush earlier-sibling pendings of the parent; if this node is
     pending in the parent as a fused child (its data rode in on an
     earlier group tuple), adopt that payload *)
  let adopted =
    if ctx.depth = 0 then None
    else begin
      let d = ctx.depth - 1 in
      let rest = flush_before ctx.sink n.View_tree.sibling_index ctx.pending.(d) in
      let found = find_fused id rest in
      ctx.pending.(d) <-
        (match found with
        | Some f ->
            List.filter
              (fun item ->
                match item.payload with Fused_payload g -> g != f | _ -> true)
              rest
        | None -> rest);
      found
    end
  in
  let pending =
    match adopted with
    | Some f -> f.fpending
    | None -> instantiate st t st.templates.(id)
  in
  ctx.sink.on_open id;
  if ctx.depth >= Array.length ctx.nodes then
    invalid_arg "Tagger: tuple path deeper than the view tree";
  ctx.nodes.(ctx.depth) <- id;
  ctx.pending.(ctx.depth) <- pending;
  ctx.depth <- ctx.depth + 1

(* The node at level [j] of a tuple's path under [parent], or -1 where
   the path ends (NULL or absent L column, unknown component). *)
let path_node ctx st (t : R.Tuple.t) parent j =
  match col t (level_col st j) with
  | R.Value.Int comp -> child ctx parent comp
  | _ -> -1

let rec open_path ctx st t parent =
  let id = path_node ctx st t parent (ctx.depth + 1) in
  if id >= 0 then begin
    open_element ctx st t id;
    open_path ctx st t id
  end

(* The stack holds the previous tuple's path; [t] shares its first
   [depth] elements. *)
let process_tuple ctx st (t : R.Tuple.t) depth =
  close_to_depth ctx depth;
  open_path ctx st t (if depth = 0 then -1 else ctx.nodes.(depth - 1))

(* --- driver -------------------------------------------------------------- *)

let tag_cursors tree (streams : (Sql_gen.stream * R.Cursor.t) list)
    (sink : sink) : unit =
  let opens = ref 0 and texts = ref 0 in
  let sink =
    if Obs.Span.tracing () then
      {
        sink with
        on_open =
          (fun t ->
            incr opens;
            sink.on_open t);
        on_text =
          (fun s ->
            incr texts;
            sink.on_text s);
      }
    else sink
  in
  let states =
    Array.of_list (List.mapi (fun i (d, c) -> build_stream_state tree i d c) streams)
  in
  let tuples_in = ref 0 in
  let ctx = make_ctx tree sink in
  let m = build_merge ctx states in
  sink.on_open root;
  while m.winner >= 0 && states.(m.winner).live do
    let st = states.(m.winner) in
    let t = st.head in
    (* the winner's code is against the previous tuple, whose path is
       the stack: every level above the differing step is shared *)
    let depth =
      if st.off = code_equal then ctx.depth else Int.min ctx.depth (st.lvl - 1)
    in
    advance ctx st;
    replay ctx m;
    incr tuples_in;
    process_tuple ctx st t depth
  done;
  close_to_depth ctx 0;
  sink.on_close root;
  if Obs.Span.tracing () then
    Obs.Span.add_list
      [
        Obs.Attr.int "streams" (List.length streams);
        Obs.Attr.int "tuples" !tuples_in;
        Obs.Attr.int "elements" !opens;
        Obs.Attr.int "texts" !texts;
        Obs.Attr.int "work" !opens;
        Obs.Attr.int "full_compares" ctx.full_compares;
      ]

let of_relations streams = List.map (fun (d, r) -> (d, R.Cursor.of_relation r)) streams

let tag tree (streams : (Sql_gen.stream * R.Relation.t) list) (sink : sink) :
    unit =
  tag_cursors tree (of_relations streams) sink

(* Sink building an in-memory document (tests, validation). *)
let document_sink tree =
  let stack : (string * Xmlkit.Xml.node list ref) list ref = ref [] in
  let result = ref None in
  let sink =
    {
      on_open = (fun id -> stack := (tag_of tree id, ref []) :: !stack);
      on_text =
        (fun v ->
          match !stack with
          | (_, children) :: _ ->
              if not (R.Value.is_null v) then
                let s = R.Value.to_string v in
                if s <> "" then children := Xmlkit.Xml.Text s :: !children
          | [] -> invalid_arg "Tagger: text outside any element");
      on_close =
        (fun id ->
          let tag = tag_of tree id in
          match !stack with
          | (tag', children) :: rest ->
              if tag <> tag' then
                invalid_arg
                  (Printf.sprintf "Tagger: closing <%s>, open is <%s>" tag tag');
              let el = Xmlkit.Xml.element tag (List.rev !children) in
              (match rest with
              | (_, pchildren) :: _ ->
                  pchildren := Xmlkit.Xml.Element el :: !pchildren;
                  stack := rest
              | [] ->
                  result := Some el;
                  stack := [])
          | [] -> invalid_arg "Tagger: close without open");
    }
  in
  let get () =
    match !result with
    | Some el -> Xmlkit.Xml.document el
    | None -> invalid_arg "Tagger: no document produced"
  in
  (sink, get)

let to_document tree streams : Xmlkit.Xml.t =
  let sink, get = document_sink tree in
  tag tree streams sink;
  get ()

let to_document_cursors tree streams : Xmlkit.Xml.t =
  let sink, get = document_sink tree in
  tag_cursors tree streams sink;
  get ()

(* --- writers ----------------------------------------------------------------- *)

(* Every element's start and end tag, rendered once per call: node id +
   1 -> "<tag>" and "</tag>", the document root at 0. *)
let rendered_tags tree =
  let n = Array.length tree.View_tree.nodes + 1 in
  let render f = Array.init n (fun i -> f (tag_of tree (i - 1))) in
  (render (fun t -> "<" ^ t ^ ">"), render (fun t -> "</" ^ t ^ ">"))

(* The length of [string_of_int n]. *)
let int_length n =
  let rec go m k = if m > -10 then k else go (m / 10) (k + 1) in
  if n < 0 then go n 2 else go (-n) 1

(* Write [string_of_int n], [len] characters long, at [b.[pos]]: digits
   from the last, off the non-positive [m], which [min_int] fits. *)
let put_int b pos len n =
  let m = ref (if n < 0 then n else -n) in
  for i = pos + len - 1 downto pos + Bool.to_int (n < 0) do
    Bytes.set b i (Char.unsafe_chr (48 - (!m mod 10)));
    m := !m / 10
  done;
  if n < 0 then Bytes.set b pos '-'

(* --- chunked string writer ------------------------------------------------ *)

(* The string paths write into chunks that are never regrown: a full
   chunk is kept and the next one started, their sizes doubling from
   4 KB to 64 KB.  The chunks are copied once, into the result. *)
type chunks = {
  mutable full : Bytes.t list; (* filled chunks, newest first *)
  mutable full_len : int;
  mutable cur : Bytes.t;
  mutable pos : int;
}

let max_chunk = 65536

let next_chunk w =
  w.full <- w.cur :: w.full;
  w.full_len <- w.full_len + w.pos;
  w.cur <- Bytes.create (Int.min max_chunk (2 * Bytes.length w.cur));
  w.pos <- 0

let rec add_substring w s i len =
  let n = Int.min len (Bytes.length w.cur - w.pos) in
  Bytes.blit_string s i w.cur w.pos n;
  w.pos <- w.pos + n;
  if n < len then begin
    next_chunk w;
    add_substring w s (i + n) (len - n)
  end

let add_string w s = add_substring w s 0 (String.length s)

let rec add_escaped w s i =
  let j = Xmlkit.Serialize.next_special s i in
  add_substring w s i (j - i);
  if j < String.length s then begin
    add_string w (Xmlkit.Serialize.entity s.[j]);
    add_escaped w s (j + 1)
  end

(* In place when the chunk has room; a chunk is filled to its end
   before the next starts, so a number it splits is written as a
   string. *)
let add_int w n =
  let len = int_length n in
  if w.pos + len <= Bytes.length w.cur then begin
    put_int w.cur w.pos len n;
    w.pos <- w.pos + len
  end
  else add_string w (string_of_int n)

let chunks_contents w =
  let out = Bytes.create (w.full_len + w.pos) in
  Bytes.blit w.cur 0 out w.full_len w.pos;
  ignore
    (List.fold_left
       (fun stop b ->
         let start = stop - Bytes.length b in
         Bytes.blit b 0 out start (Bytes.length b);
         start)
       w.full_len w.full);
  Bytes.unsafe_to_string out

let chunks_sink tree w =
  let opens, closes = rendered_tags tree in
  {
    on_open = (fun id -> add_string w opens.(id + 1));
    on_text =
      (function
      | R.Value.Null -> ()
      | R.Value.Int n -> add_int w n
      | R.Value.String s -> add_escaped w s 0
      | v -> add_escaped w (R.Value.to_string v) 0);
    on_close = (fun id -> add_string w closes.(id + 1));
  }

let to_string_cursors tree streams : string =
  let w = { full = []; full_len = 0; cur = Bytes.create 4096; pos = 0 } in
  tag_cursors tree streams (chunks_sink tree w);
  chunks_contents w

let to_string tree streams : string = to_string_cursors tree (of_relations streams)

(* Sink writing straight to a channel: XML leaves the process as it is
   produced, without ever holding the whole document in memory. *)
let channel_sink tree oc =
  let opens, closes = rendered_tags tree and digits = Bytes.create 20 in
  {
    on_open = (fun id -> output_string oc opens.(id + 1));
    on_text =
      (function
      | R.Value.Null -> ()
      | R.Value.Int n ->
          let len = int_length n in
          put_int digits 0 len n;
          output oc digits 0 len
      | R.Value.String s -> Xmlkit.Serialize.output_escaped oc s
      | v -> Xmlkit.Serialize.output_escaped oc (R.Value.to_string v));
    on_close = (fun id -> output_string oc closes.(id + 1));
  }

let to_channel tree streams oc : unit =
  tag_cursors tree streams (channel_sink tree oc)
