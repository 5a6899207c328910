(* The paper's two benchmark views over TPC-H (Figs. 3, 6, 12) in RXL
   concrete syntax, plus the DTD of Fig. 2.

   Query 1 nests the two one-to-many edges in a chain
   (supplier -*-> part -*-> order); Query 2 puts them in parallel
   (supplier -*-> part, supplier -*-> order).  Both view trees have 10
   nodes and 9 edges, so each admits 2^9 = 512 execution plans. *)

let query1_text =
  {|
view suppliers
{
  from Supplier $s
  construct
    <supplier>
      <name>$s.name</name>
      {
        from Nation $n
        where $s.nationkey = $n.nationkey
        construct
          <nation>$n.name</nation>
      }
      {
        from Nation $n2, Region $r
        where $s.nationkey = $n2.nationkey, $n2.regionkey = $r.regionkey
        construct
          <region>$r.name</region>
      }
      {
        from PartSupp $ps, Part $p
        where $s.suppkey = $ps.suppkey, $ps.partkey = $p.partkey
        construct
          <part>
            <name>$p.name</name>
            {
              from LineItem $l, Orders $o
              where $ps.partkey = $l.partkey,
                    $ps.suppkey = $l.suppkey,
                    $l.orderkey = $o.orderkey
              construct
                <order>
                  <orderkey>$o.orderkey</orderkey>
                  {
                    from Customer $c
                    where $o.custkey = $c.custkey
                    construct <customer>$c.name</customer>
                  }
                  {
                    from Customer $c2, Nation $n3
                    where $o.custkey = $c2.custkey,
                          $c2.nationkey = $n3.nationkey
                    construct <nation>$n3.name</nation>
                  }
                </order>
            }
          </part>
      }
    </supplier>
}
|}

let query2_text =
  {|
view suppliers
{
  from Supplier $s
  construct
    <supplier>
      <name>$s.name</name>
      {
        from Nation $n
        where $s.nationkey = $n.nationkey
        construct
          <nation>$n.name</nation>
      }
      {
        from Nation $n2, Region $r
        where $s.nationkey = $n2.nationkey, $n2.regionkey = $r.regionkey
        construct
          <region>$r.name</region>
      }
      {
        from PartSupp $ps, Part $p
        where $s.suppkey = $ps.suppkey, $ps.partkey = $p.partkey
        construct
          <part>
            <name>$p.name</name>
          </part>
      }
      {
        from LineItem $l, Orders $o
        where $s.suppkey = $l.suppkey, $l.orderkey = $o.orderkey
        construct
          <order>
            <orderkey>$o.orderkey</orderkey>
            {
              from Customer $c
              where $o.custkey = $c.custkey
              construct <customer>$c.name</customer>
            }
            {
              from Customer $c2, Nation $n3
              where $o.custkey = $c2.custkey,
                    $c2.nationkey = $n3.nationkey
              construct <nation>$n3.name</nation>
            }
          </order>
      }
    </supplier>
}
|}

(* The simplified boxed query of the paper's Sec. 2 / Fig. 4: supplier
   with one nation child and one part child. *)
let fragment_text =
  {|
view suppliers
{
  from Supplier $s
  construct
    <supplier>
      {
        from Nation $n
        where $s.nationkey = $n.nationkey
        construct <nation>$n.name</nation>
      }
      {
        from PartSupp $ps, Part $p
        where $s.suppkey = $ps.suppkey, $ps.partkey = $p.partkey
        construct <part>$p.name</part>
      }
    </supplier>
}
|}

(* Query 3 is not in the paper: it is the "larger set of test queries"
   its Sec. 5.1 calls for, used to check that the fixed planner
   thresholds transfer to other views.  A customer-centric export whose
   order -> item edge is guaranteed ('+' label) by the declared inclusion
   dependency Orders[orderkey] ⊆ LineItem[orderkey]. *)
let query3_text =
  {|
view customers
{
  from Customer $c
  construct
    <customer>
      <name>$c.name</name>
      {
        from Nation $n
        where $c.nationkey = $n.nationkey
        construct
          <nation>$n.name</nation>
      }
      {
        from Orders $o
        where $c.custkey = $o.custkey
        construct
          <order>
            <orderkey>$o.orderkey</orderkey>
            {
              from LineItem $l
              where $o.orderkey = $l.orderkey
              construct
                <item>
                  {
                    from Part $p
                    where $l.partkey = $p.partkey
                    construct <part>$p.name</part>
                  }
                  <qty>$l.qty</qty>
                </item>
            }
          </order>
      }
    </customer>
}
|}

let dtd_query1 =
  let open Xmlkit.Dtd in
  create ~root:"suppliers"
    [
      { el_name = "suppliers"; el_content = Children [ ("supplier", Star) ] };
      {
        el_name = "supplier";
        el_content =
          Children
            [ ("name", One); ("nation", One); ("region", One); ("part", Star) ];
      };
      {
        el_name = "part";
        el_content = Children [ ("name", One); ("order", Star) ];
      };
      {
        el_name = "order";
        el_content =
          Children [ ("orderkey", One); ("customer", One); ("nation", One) ];
      };
      { el_name = "name"; el_content = Pcdata };
      { el_name = "nation"; el_content = Pcdata };
      { el_name = "region"; el_content = Pcdata };
      { el_name = "orderkey"; el_content = Pcdata };
      { el_name = "customer"; el_content = Pcdata };
    ]

let dtd_query2 =
  let open Xmlkit.Dtd in
  create ~root:"suppliers"
    [
      { el_name = "suppliers"; el_content = Children [ ("supplier", Star) ] };
      {
        el_name = "supplier";
        el_content =
          Children
            [
              ("name", One); ("nation", One); ("region", One); ("part", Star);
              ("order", Star);
            ];
      };
      { el_name = "part"; el_content = Children [ ("name", One) ] };
      {
        el_name = "order";
        el_content =
          Children [ ("orderkey", One); ("customer", One); ("nation", One) ];
      };
      { el_name = "name"; el_content = Pcdata };
      { el_name = "nation"; el_content = Pcdata };
      { el_name = "region"; el_content = Pcdata };
      { el_name = "orderkey"; el_content = Pcdata };
      { el_name = "customer"; el_content = Pcdata };
    ]

let dtd_query3 =
  let open Xmlkit.Dtd in
  create ~root:"customers"
    [
      { el_name = "customers"; el_content = Children [ ("customer", Star) ] };
      {
        el_name = "customer";
        el_content =
          Children [ ("name", One); ("nation", One); ("order", Star) ];
      };
      {
        el_name = "order";
        el_content = Children [ ("orderkey", One); ("item", Plus) ];
      };
      {
        el_name = "item";
        el_content = Children [ ("part", One); ("qty", One) ];
      };
      { el_name = "name"; el_content = Pcdata };
      { el_name = "nation"; el_content = Pcdata };
      { el_name = "orderkey"; el_content = Pcdata };
      { el_name = "part"; el_content = Pcdata };
      { el_name = "qty"; el_content = Pcdata };
    ]
