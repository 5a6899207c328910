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

   Streams are consumed through pull cursors and merged with a binary
   min-heap keyed by [compare_heads] (ties broken by stream position, so
   the merge order is identical to a left-to-right scan): selecting the
   next tuple costs O(log streams) comparator calls instead of a linear
   scan over every stream head per tuple.

   Everything a tuple is read through — L columns, each node's key
   variables, text contents, the (parent, SFI component) -> node map —
   is resolved to array indices once per stream or per call, so the
   per-tuple loop does array reads and value comparisons only, and
   allocates nothing beyond the elements and texts it emits. *)

module R = Relational

type sink = {
  on_open : string -> unit;
  on_text : string -> unit;
  on_close : string -> unit;
}

(* --- pending items ----------------------------------------------------- *)

type pending_item = { index : int; payload : payload }

and payload =
  | Text_payload of string
  | Fused_payload of fused_elem

and fused_elem = { fnode : int; mutable fpending : pending_item list }

type open_elem = {
  o_node : int;
  o_identity : R.Value.t array; (* key-var values, in key_vars order *)
  mutable o_pending : pending_item list; (* sorted by index *)
}

let value_text v = if R.Value.is_null v then "" else R.Value.to_string v

(* Emit a fused element and everything pending inside it. *)
let rec emit_fused tree sink (f : fused_elem) =
  let n = View_tree.node tree f.fnode in
  sink.on_open n.View_tree.tag;
  List.iter (fun item -> emit_payload tree sink item.payload) f.fpending;
  f.fpending <- [];
  sink.on_close n.View_tree.tag

and emit_payload tree sink = function
  | Text_payload s -> sink.on_text s
  | Fused_payload f -> emit_fused tree sink f

(* Emit the pending items with index < threshold — a prefix, as the list
   is sorted by index — and return the rest. *)
let rec flush_before tree sink threshold = function
  | item :: rest when item.index < threshold ->
      emit_payload tree sink item.payload;
      flush_before tree sink threshold rest
  | rest -> rest

(* --- streams ------------------------------------------------------------ *)

(* What a freshly opened element of a node holds pending, resolved once
   per stream against its columns: text contents and fused children,
   sorted by index. *)
type template =
  | Text_const of int * string (* index, text *)
  | Text_col of int * int (* index, column or -1 *)
  | Fused of int * int (* index, fused child node *)

let template_index = function
  | Text_const (i, _) | Text_col (i, _) | Fused (i, _) -> i

(* Every name a stream's tuples are read through is resolved to a column
   index here, once per stream; -1 marks a column the stream does not
   carry, which reads as NULL. *)
type stream_state = {
  sid : int; (* position in the stream list; merge tie-break *)
  cursor : R.Cursor.t;
  mutable head : R.Tuple.t option;
  level_idx : int array; (* per level 1..max: column index or -1 *)
  key_idx : int array array; (* per node: column of each key var, or -1 *)
  templates : template list array; (* per node; [] outside the fragment *)
}

let advance st = st.head <- R.Cursor.next st.cursor

let max_level tree =
  Array.fold_left (fun m n -> max m (View_tree.level n)) 0 tree.View_tree.nodes

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
  let members = desc.Sql_gen.fragment.Partition.members in
  let template (n : View_tree.node) =
    let id = n.View_tree.id in
    if not (List.mem id members) then []
    else
      let texts =
        List.map
          (fun (index, c) ->
            match c with
            | View_tree.Content_const v -> Text_const (index, value_text v)
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
      cursor = cur;
      head = None;
      level_idx;
      key_idx;
      templates = Array.map template tree.View_tree.nodes;
    }
  in
  advance st;
  st

let col (t : R.Tuple.t) i = if i < 0 then R.Value.Null else t.(i)

let level_value st (t : R.Tuple.t) j =
  if j >= Array.length st.level_idx then R.Value.Null
  else col t st.level_idx.(j)

(* Build the pending list for a freshly opened element from the stream's
   template for its node, reading text columns off the current tuple. *)
let rec instantiate st t templates =
  List.map
    (function
      | Text_const (index, s) -> { index; payload = Text_payload s }
      | Text_col (index, i) ->
          { index; payload = Text_payload (value_text (col t i)) }
      | Fused (index, m) ->
          {
            index;
            payload =
              Fused_payload
                { fnode = m; fpending = instantiate st t st.templates.(m) };
          })
    templates

(* --- per-tuple processing ----------------------------------------------- *)

(* The open-element stack is stored root-first in a fixed array sized by
   the view-tree depth, with [depth] tracked incrementally: matching a
   tuple's path against the stack, closing to a depth and finding the
   parent are all O(1) per step.  [children] replaces the (parent, SFI
   component) -> node lookup by two array reads. *)
type ctx = {
  tree : View_tree.t;
  sink : sink;
  children : int array array; (* parent id + 1 -> component -> id or -1 *)
  stack : open_elem array; (* stack.(0) is outermost; root-first *)
  mutable depth : int; (* open elements = stack.(0 .. depth-1) *)
}

let closed = { o_node = -1; o_identity = [||]; o_pending = [] }

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
  { tree; sink; children; stack = Array.make (max_level tree + 1) closed;
    depth = 0 }

let child ctx parent comp =
  let row = ctx.children.(parent + 1) in
  if comp >= 0 && comp < Array.length row then row.(comp) else -1

(* The node at level [j] of a tuple's path under [parent], or -1 where
   the path ends (NULL or absent L column, unknown component). *)
let path_node ctx st (t : R.Tuple.t) parent j =
  match level_value st t j with
  | R.Value.Int comp -> child ctx parent comp
  | _ -> -1

(* Hierarchical merge comparator: at each level compare the L component,
   then — only when the components agree — the key variables of that path
   node.  Key variables of sibling nodes never participate, so streams
   that do not carry them (they would read NULL) cannot be mis-ordered
   against streams that do.  A tuple whose path is a prefix of another's
   sorts first (parent rows precede child rows). *)
let rec compare_from ctx sa ta sb tb parent j =
  let la = level_value sa ta j and lb = level_value sb tb j in
  match (la, lb) with
  | R.Value.Null, R.Value.Null -> 0
  | _ -> (
      let c = R.Value.compare_total la lb in
      if c <> 0 then c
      else
        (* equal non-null component: same node *)
        match la with
        | R.Value.Int comp ->
            let id = child ctx parent comp in
            if id < 0 then 0
            else compare_keys ctx sa ta sb tb id j sa.key_idx.(id) sb.key_idx.(id) 0
        | _ -> 0)

and compare_keys ctx sa ta sb tb id j ka kb i =
  if i >= Array.length ka then compare_from ctx sa ta sb tb id (j + 1)
  else
    let c = R.Value.compare_total (col ta ka.(i)) (col tb kb.(i)) in
    if c <> 0 then c else compare_keys ctx sa ta sb tb id j ka kb (i + 1)

let compare_heads ctx sa ta sb tb = compare_from ctx sa ta sb tb (-1) 1

(* --- heap of stream heads ----------------------------------------------- *)

(* Binary min-heap over stream states, each holding a non-empty head.
   The order is (compare_heads, sid): on equal heads the earlier stream
   wins, exactly reproducing the order a left-to-right linear scan with
   strict [<] replacement would select. *)
module Head_heap = struct
  type t = {
    arr : stream_state array; (* arr.(0..size-1) is the heap *)
    mutable size : int;
    less : stream_state -> stream_state -> bool;
  }

  let head_exn st =
    match st.head with
    | Some t -> t
    | None -> invalid_arg "Tagger: empty stream in merge heap"

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = ref i in
    if l < h.size && h.less h.arr.(l) h.arr.(!m) then m := l;
    if r < h.size && h.less h.arr.(r) h.arr.(!m) then m := r;
    if !m <> i then begin
      let tmp = h.arr.(i) in
      h.arr.(i) <- h.arr.(!m);
      h.arr.(!m) <- tmp;
      sift_down h !m
    end

  let create less states =
    let live = List.filter (fun st -> Option.is_some st.head) states in
    let h = { arr = Array.of_list live; size = List.length live; less } in
    (* heapify bottom-up *)
    for i = (h.size / 2) - 1 downto 0 do
      sift_down h i
    done;
    h

  (* The minimum's head changed (advanced) or emptied: restore order. *)
  let reposition_min h =
    if h.size > 0 then begin
      if Option.is_none h.arr.(0).head then begin
        h.size <- h.size - 1;
        if h.size > 0 then h.arr.(0) <- h.arr.(h.size)
      end;
      if h.size > 0 then sift_down h 0
    end
end

let close_one ctx =
  if ctx.depth > 0 then begin
    let e = ctx.stack.(ctx.depth - 1) in
    List.iter (fun item -> emit_payload ctx.tree ctx.sink item.payload) e.o_pending;
    e.o_pending <- [];
    ctx.sink.on_close (View_tree.node ctx.tree e.o_node).View_tree.tag;
    ctx.stack.(ctx.depth - 1) <- closed;
    ctx.depth <- ctx.depth - 1
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
      let parent = ctx.stack.(ctx.depth - 1) in
      parent.o_pending <-
        flush_before ctx.tree ctx.sink n.View_tree.sibling_index
          parent.o_pending;
      let found = find_fused id parent.o_pending in
      (match found with
      | Some f ->
          parent.o_pending <-
            List.filter
              (fun item ->
                match item.payload with Fused_payload g -> g != f | _ -> true)
              parent.o_pending
      | None -> ());
      found
    end
  in
  let pending =
    match adopted with
    | Some f -> f.fpending
    | None -> instantiate st t st.templates.(id)
  in
  ctx.sink.on_open n.View_tree.tag;
  if ctx.depth >= Array.length ctx.stack then
    invalid_arg "Tagger: tuple path deeper than the view tree";
  let keys = st.key_idx.(id) in
  let identity = Array.make (Array.length keys) R.Value.Null in
  for i = 0 to Array.length keys - 1 do
    identity.(i) <- col t keys.(i)
  done;
  ctx.stack.(ctx.depth) <- { o_node = id; o_identity = identity; o_pending = pending };
  ctx.depth <- ctx.depth + 1

let rec identity_matches (e : open_elem) (t : R.Tuple.t) keys i =
  i >= Array.length keys
  || R.Value.equal e.o_identity.(i) (col t keys.(i))
     && identity_matches e t keys (i + 1)

(* How deep the open-element stack agrees with the tuple's path: same
   node and same key-variable values at every level. *)
let rec matched_depth ctx st t depth parent =
  if depth >= ctx.depth then depth
  else
    let id = path_node ctx st t parent (depth + 1) in
    let e = ctx.stack.(depth) in
    if id >= 0 && e.o_node = id && identity_matches e t st.key_idx.(id) 0 then
      matched_depth ctx st t (depth + 1) id
    else depth

let rec open_path ctx st t parent =
  let id = path_node ctx st t parent (ctx.depth + 1) in
  if id >= 0 then begin
    open_element ctx st t id;
    open_path ctx st t id
  end

let process_tuple ctx st (t : R.Tuple.t) =
  let depth = matched_depth ctx st t 0 (-1) in
  close_to_depth ctx depth;
  open_path ctx st t (if depth = 0 then -1 else ctx.stack.(depth - 1).o_node)

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
    List.mapi (fun i (d, c) -> build_stream_state tree i d c) streams
  in
  let tuples_in = ref 0 in
  let ctx = make_ctx tree sink in
  let less a b =
    let c =
      compare_heads ctx a (Head_heap.head_exn a) b (Head_heap.head_exn b)
    in
    if c <> 0 then c < 0 else a.sid < b.sid
  in
  let heap = Head_heap.create less states in
  sink.on_open tree.View_tree.root_tag;
  while heap.Head_heap.size > 0 do
    let st = heap.Head_heap.arr.(0) in
    let t = Head_heap.head_exn st in
    advance st;
    Head_heap.reposition_min heap;
    incr tuples_in;
    process_tuple ctx st t
  done;
  close_to_depth ctx 0;
  sink.on_close tree.View_tree.root_tag;
  if Obs.Span.tracing () then begin
    Obs.Span.add_list
      [
        Obs.Attr.int "streams" (List.length streams);
        Obs.Attr.int "tuples" !tuples_in;
        Obs.Attr.int "elements" !opens;
        Obs.Attr.int "texts" !texts;
        Obs.Attr.int "work" !opens;
      ];
    Obs.Metrics.incr ~by:!opens "tag.elements";
    Obs.Metrics.observe "tag.tuples" (float_of_int !tuples_in)
  end

let tag tree (streams : (Sql_gen.stream * R.Relation.t) list) (sink : sink) :
    unit =
  tag_cursors tree
    (List.map (fun (d, r) -> (d, R.Cursor.of_relation r)) streams)
    sink

(* Sink building an in-memory document (tests, validation). *)
let document_sink () =
  let stack : (string * Xmlkit.Xml.node list ref) list ref = ref [] in
  let result = ref None in
  let sink =
    {
      on_open = (fun tag -> stack := (tag, ref []) :: !stack);
      on_text =
        (fun s ->
          match !stack with
          | (_, children) :: _ ->
              if s <> "" then children := Xmlkit.Xml.Text s :: !children
          | [] -> invalid_arg "Tagger: text outside any element");
      on_close =
        (fun tag ->
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
  let sink, get = document_sink () in
  tag tree streams sink;
  get ()

let to_document_cursors tree streams : Xmlkit.Xml.t =
  let sink, get = document_sink () in
  tag_cursors tree streams sink;
  get ()

(* Sink serializing directly to a buffer: the constant-space path. *)
let buffer_sink buf =
  {
    on_open =
      (fun tag ->
        Buffer.add_char buf '<';
        Buffer.add_string buf tag;
        Buffer.add_char buf '>');
    on_text = Xmlkit.Serialize.escape_into buf;
    on_close =
      (fun tag ->
        Buffer.add_string buf "</";
        Buffer.add_string buf tag;
        Buffer.add_char buf '>');
  }

let to_string tree streams : string =
  let buf = Buffer.create 4096 in
  tag tree streams (buffer_sink buf);
  Buffer.contents buf

let to_string_cursors tree streams : string =
  let buf = Buffer.create 4096 in
  tag_cursors tree streams (buffer_sink buf);
  Buffer.contents buf

(* Sink writing straight to a channel: XML leaves the process as it is
   produced, without ever holding the whole document in memory. *)
let channel_sink oc =
  {
    on_open =
      (fun tag ->
        output_char oc '<';
        output_string oc tag;
        output_char oc '>');
    on_text = Xmlkit.Serialize.output_escaped oc;
    on_close =
      (fun tag ->
        output_string oc "</";
        output_string oc tag;
        output_char oc '>');
  }

let to_channel tree streams oc : unit =
  tag_cursors tree streams (channel_sink oc)
