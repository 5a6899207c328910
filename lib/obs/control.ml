(* Global observability switch.

   Every instrumentation site in the pipeline is gated on this single
   flag, so with tracing disabled the instrumentation reduces to one
   boolean test (plus the closure the [with_span] wrapper allocates).
   The flag gates spans and events together: the CLI's [--trace],
   [--trace-json] and [--profile] all turn it on and then choose what
   to render.

   The flag is an [Atomic.t] so worker domains spawned mid-run read a
   coherent value; flipping it while domains execute is not supported
   (callers enable observability before submitting parallel work). *)

let enabled = Atomic.make false
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

let with_enabled b f =
  let prev = Atomic.get enabled in
  Atomic.set enabled b;
  Fun.protect ~finally:(fun () -> Atomic.set enabled prev) f
