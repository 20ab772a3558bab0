(* Standalone host-cost probes for the layers the traced run cannot time
   from outside: the engine's dispatch loop and the fabric + transport
   path.  Each is sized from the traced run's own counts. *)

module Engine = Zeus_sim.Engine
module Fabric = Zeus_net.Fabric
module Transport = Zeus_net.Transport

type cost = { units : int; host_s : float; words : float }

let ns_per c = if c.units = 0 then 0.0 else c.host_s *. 1e9 /. float_of_int c.units
let words_per c = if c.units = 0 then 0.0 else c.words /. float_of_int c.units

let measure units f =
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  f ();
  { units; host_s = Unix.gettimeofday () -. t0; words = Gc.minor_words () -. w0 }

(* [events] no-op callbacks through [Engine.schedule]/[run]: 64 timer
   chains at staggered periods keep the queue at a realistic depth. *)
let engine ~events =
  let eng = Engine.create () in
  let fired = ref 0 in
  let rec tick period () =
    incr fired;
    if !fired + 64 <= events then ignore (Engine.schedule eng ~after:period (tick period))
  in
  let c =
    measure events (fun () ->
        for i = 0 to min 64 events - 1 do
          let period = 1.0 +. (0.1 *. float_of_int (i mod 7)) in
          ignore (Engine.schedule eng ~after:period (tick period))
        done;
        Engine.run eng)
  in
  if !fired <> Engine.events_dispatched eng then failwith "engine probe: lost events";
  { c with units = !fired }

type Zeus_net.Msg.payload += Probe

(* [payloads] payloads 0 -> 1 over a standalone 2-node fabric and the
   default batched transport, in bursts of [per_frame] (the run's observed
   frame occupancy), each burst drained before the next. *)
let net ~payloads ~per_frame =
  let eng = Engine.create () in
  let fabric = Fabric.create eng ~nodes:2 Fabric.default_config in
  let tr = Transport.create fabric in
  let delivered = ref 0 in
  Transport.set_handler tr 1 (fun ~src:_ _ -> incr delivered);
  Transport.set_handler tr 0 (fun ~src:_ _ -> ());
  let per_frame = max 1 per_frame in
  let c =
    measure payloads (fun () ->
        let sent = ref 0 in
        while !sent < payloads do
          for _ = 1 to min per_frame (payloads - !sent) do
            Transport.send tr ~src:0 ~dst:1 Probe;
            incr sent
          done;
          Engine.run eng
        done)
  in
  if !delivered <> payloads then
    failwith (Printf.sprintf "net probe: %d of %d payloads delivered" !delivered payloads);
  c
