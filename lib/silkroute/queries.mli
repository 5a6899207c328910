(** The paper's benchmark views over TPC-H.

    Query 1 (Fig. 3/6) chains its two one-to-many edges
    (supplier → part → order); Query 2 (Fig. 12) puts them in parallel.
    Both view trees have 10 nodes and 9 edges → 512 plans each. *)

val query1_text : string
(** RXL source of Query 1. *)

val query2_text : string
val fragment_text : string
(** The simplified boxed query of Sec. 2 / Fig. 4 (supplier, nation,
    part). *)

val dtd_query1 : Xmlkit.Dtd.t
(** The DTD of the paper's Fig. 2 (plus the [suppliers] document root). *)

val dtd_query2 : Xmlkit.Dtd.t

val query3_text : string
(** Not from the paper: the extra test query its Sec. 5.1 calls for —
    a customer-centric export whose order→item edge carries a '+' label
    via the declared inclusion Orders ⊆ LineItem. *)

val dtd_query3 : Xmlkit.Dtd.t
