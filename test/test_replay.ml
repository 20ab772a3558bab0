(* Record/replay determinism of the sans-I/O protocol cores.

   The agents' I/O taps record every (input, effect list) pair a live
   cluster feeds its cores; replaying the recorded inputs into a fresh
   core must reproduce every effect list and the final canonical
   fingerprint.  This is the property that makes post-mortem replay
   debugging sound — a core's behaviour is a pure function of its input
   sequence, with no hidden dependence on the engine, transport or wall
   clock it happened to be wired to. *)

module Cluster = Zeus_core.Cluster
module Config = Zeus_core.Config
module Node = Zeus_core.Node
module Value = Zeus_store.Value
module Txn = Zeus_store.Txn
module OwnA = Zeus_ownership.Agent
module OwnC = Zeus_ownership.Core
module ComA = Zeus_commit.Agent
module ComC = Zeus_commit.Core
module CMsg = Zeus_commit.Messages
module OMsg = Zeus_ownership.Messages
module Effect_stack = Zeus_sim.Effect_stack

let tc = Helpers.tc
let qtest = QCheck_alcotest.to_alcotest

(* ---------- recording from a live cluster --------------------------------- *)

(* Local and remote writes: the remote ones force full ownership
   handovers, the multi-key ones multi-follower commit streams. *)
let default_writes =
  [ (0, [ 0 ]); (1, [ 0 ]); (2, [ 1; 2 ]); (0, [ 3; 4 ]); (1, [ 5 ]); (2, [ 0; 5 ]) ]

(* Taps are attached before [populate] so the logs open with the seeding
   inputs a fresh core needs (Api_seed / Api_register). *)
let record_cluster ?(writes = default_writes) () =
  let nodes = 3 in
  let c = Helpers.default_cluster ~nodes () in
  let own_logs = Array.init nodes (fun _ -> ref []) in
  let com_logs = Array.init nodes (fun _ -> ref []) in
  for i = 0 to nodes - 1 do
    OwnA.set_io_tap
      (Node.ownership_agent (Cluster.node c i))
      (fun input effs -> own_logs.(i) := (input, effs) :: !(own_logs.(i)));
    ComA.set_io_tap
      (Node.commit_agent (Cluster.node c i))
      (fun input effs -> com_logs.(i) := (input, effs) :: !(com_logs.(i)))
  done;
  for k = 0 to 5 do
    Cluster.populate c ~key:k ~owner:(k mod nodes) (Value.of_int 0)
  done;
  List.iter
    (fun (node, keys) ->
      Helpers.expect_committed "recorded write"
        (Helpers.write_txn c node ~keys ~value:(Value.of_int 7)))
    writes;
  let finish l = List.rev !l in
  (c, Array.map finish own_logs, Array.map finish com_logs)

let check_steps name replayed recorded =
  List.iteri
    (fun step (effs', effs) ->
      if effs' <> effs then
        Alcotest.failf "%s: step %d diverged (%d effects replayed, %d recorded)" name
          step (List.length effs') (List.length effs))
    (List.combine replayed recorded)

let commit_agent_replay () =
  let c, _, com_logs = record_cluster () in
  let nodes = Cluster.nodes c in
  for i = 0 to nodes - 1 do
    let log = com_logs.(i) in
    Alcotest.(check bool)
      (Printf.sprintf "n%d recorded commit traffic" i)
      true (log <> []);
    let fresh = ComC.create ~self:i ~nodes () in
    let replayed = List.map (fun (input, _) -> snd (ComC.handle fresh input)) log in
    check_steps (Printf.sprintf "commit n%d" i) replayed (List.map snd log);
    Alcotest.(check string)
      (Printf.sprintf "commit n%d final state" i)
      (ComA.core_fingerprint (Node.commit_agent (Cluster.node c i)))
      (ComC.fingerprint fresh)
  done

let ownership_agent_replay () =
  let c, own_logs, _ = record_cluster () in
  let nodes = Cluster.nodes c in
  let config = Cluster.config c in
  let dir key = Config.dir_nodes_for config ~key in
  for i = 0 to nodes - 1 do
    let log = own_logs.(i) in
    Alcotest.(check bool)
      (Printf.sprintf "n%d recorded ownership traffic" i)
      true (log <> []);
    let fresh = OwnC.create ~config:config.Config.ownership ~self:i ~nodes () in
    let replayed = List.map (fun (input, _) -> snd (OwnC.handle ~dir fresh input)) log in
    check_steps (Printf.sprintf "ownership n%d" i) replayed (List.map snd log);
    Alcotest.(check string)
      (Printf.sprintf "ownership n%d final state" i)
      (OwnA.core_fingerprint (Node.ownership_agent (Cluster.node c i)))
      (OwnC.fingerprint fresh)
  done

(* ---------- qcheck: arbitrary commit schedules ---------------------------- *)

(* A closed-loop mini-interpreter (the Core_harness pattern): the
   coordinator pipelines a random schedule over object 0 (replicated on
   everyone) and object 1 (a partial stream), with the network drained at
   random points so stream shapes vary.  Every node's log must replay. *)

let nnodes = 3
let replicas_of k = if k = 0 then [ 0; 1; 2 ] else [ 0; 1 ]

let env = { ComC.epoch = 0; live = Array.make nnodes true; trace_on = false }

let run_schedule schedule =
  let cores = Array.init nnodes (fun i -> ComC.create ~self:i ~nodes:nnodes ()) in
  let logs = Array.init nnodes (fun _ -> ref []) in
  let net = Queue.create () in
  let feed i input =
    let _, effs = ComC.handle cores.(i) input in
    logs.(i) := (input, effs) :: !(logs.(i));
    List.iter
      (function
        | ComC.Send { dst; payload; _ } -> Queue.add (i, dst, payload) net
        | _ -> ())
      effs
  in
  let drain () =
    while not (Queue.is_empty net) do
      let src, dst, payload = Queue.pop net in
      feed dst (ComC.Deliver { src; payload; env })
    done
  in
  let vers = Array.make 2 0 in
  List.iter
    (fun (objs, drain_now) ->
      let updates =
        List.map
          (fun k ->
            vers.(k) <- vers.(k) + 1;
            { Txn.key = k; version = vers.(k); data = Value.empty; freed = false })
          objs
      in
      let replica_sets = List.map (fun (u : Txn.update) -> replicas_of u.Txn.key) updates in
      feed 0
        (ComC.Api_commit { thread = 0; updates; replica_sets; has_durable = false; env });
      if drain_now then drain ())
    schedule;
  drain ();
  (cores, Array.map (fun l -> List.rev !l) logs)

let schedule_gen =
  QCheck.(
    list_of_size
      Gen.(1 -- 6)
      (pair (oneofl [ [ 0 ]; [ 1 ]; [ 0; 1 ] ]) bool))

let commit_schedule_replays =
  QCheck.Test.make ~name:"commit core: any recorded schedule replays" ~count:100
    schedule_gen (fun schedule ->
      let cores, logs = run_schedule schedule in
      Array.to_list cores
      |> List.mapi (fun i core -> (i, core, logs.(i)))
      |> List.for_all (fun (i, core, log) ->
             let fresh = ComC.create ~self:i ~nodes:nnodes () in
             List.for_all
               (fun (input, effs) -> snd (ComC.handle fresh input) = effs)
               log
             && ComC.fingerprint fresh = ComC.fingerprint core))

(* ---------- effect delivery: handle_with vs handle ------------------------ *)

(* The agents deliver effects through [handle_with ~emit] onto an
   {!Effect_stack}; the model harness and replay use the derived list
   [handle].  Both must see the same sequence on any input stream. *)

let emitted stack handle_with input =
  let base = Effect_stack.top stack in
  handle_with ~emit:(Effect_stack.emit stack) input;
  let effs = Effect_stack.segment stack ~from:base in
  Effect_stack.run stack ~from:base;
  effs

let commit_log_delivers_alike i log =
  let by_list = ComC.create ~self:i ~nodes:nnodes () in
  let by_emit = ComC.create ~self:i ~nodes:nnodes () in
  let stack = Effect_stack.create ~filler:ComC.Flush in
  List.for_all
    (fun (input, _) ->
      snd (ComC.handle by_list input) = emitted stack (ComC.handle_with by_emit) input)
    log
  && ComC.fingerprint by_list = ComC.fingerprint by_emit

let commit_emit_matches_list =
  QCheck.Test.make ~name:"commit core: handle_with emits exactly handle's list" ~count:100
    schedule_gen (fun schedule ->
      let _, logs = run_schedule schedule in
      Array.to_list logs |> List.mapi commit_log_delivers_alike |> List.for_all Fun.id)

let writes_gen =
  QCheck.(
    list_of_size
      Gen.(1 -- 5)
      (pair (int_range 0 2) (oneofl [ [ 0 ]; [ 1 ]; [ 2; 3 ]; [ 4; 5 ]; [ 0; 5 ] ])))

let ownership_emit_matches_list =
  QCheck.Test.make ~name:"ownership core: handle_with emits exactly handle's list"
    ~count:15 writes_gen (fun writes ->
      let c, own_logs, com_logs = record_cluster ~writes () in
      let config = Cluster.config c in
      let dir key = Config.dir_nodes_for config ~key in
      let nodes = Cluster.nodes c in
      List.for_all
        (fun i ->
          let fresh () = OwnC.create ~config:config.Config.ownership ~self:i ~nodes () in
          let by_list = fresh () and by_emit = fresh () in
          let stack = Effect_stack.create ~filler:OwnC.Flush in
          List.for_all
            (fun (input, _) ->
              snd (OwnC.handle ~dir by_list input)
              = emitted stack (OwnC.handle_with ~dir by_emit) input)
            own_logs.(i)
          && OwnC.fingerprint by_list = OwnC.fingerprint by_emit
          && commit_log_delivers_alike i com_logs.(i))
        (List.init nodes Fun.id))

(* An executor whose continuation feeds the same core synchronously, run
   the agents' way (effect stack) and the pre-stack way (list, then
   iterate): the executed sequences must match, with the nested input's
   effects spliced in place of the continuation. *)
let executed_by_stack ~filler ~handle_with ~on_eff inputs =
  let stack = Effect_stack.create ~filler in
  let out = ref [] in
  let feed input =
    let base = Effect_stack.top stack in
    handle_with ~emit:(Effect_stack.emit stack) input;
    Effect_stack.run stack ~from:base
  in
  Effect_stack.set_exec stack (fun e ->
      out := e :: !out;
      on_eff feed e);
  List.iter feed inputs;
  Alcotest.(check int) "stack empty after the last feed" 0 (Effect_stack.top stack);
  List.rev !out

let executed_by_list ~handle ~on_eff inputs =
  let out = ref [] in
  let rec feed input =
    List.iter
      (fun e ->
        out := e :: !out;
        on_eff feed e)
      (handle input)
  in
  List.iter feed inputs;
  List.rev !out

let rec drop_until p = function [] -> [] | x :: tl -> if p x then tl else drop_until p tl

let nested_durable_commit () =
  let upd = { Txn.key = 0; version = 1; data = Value.empty; freed = false } in
  let commit =
    ComC.Api_commit
      { thread = 0; updates = [ upd ]; replica_sets = [ [ 0; 1; 2 ] ]; has_durable = true; env }
  in
  let ack src =
    ComC.Deliver
      {
        src;
        payload = CMsg.R_ack { tx = { pipe = { node = 0; thread = 0 }; slot = 0 }; sender = src };
        env;
      }
  in
  (* Slot 0's durability continuation commits slot 1 from inside the
     R-ACK that completes slot 0, whose R-VALs follow the [Durable]. *)
  let on_eff feed = function
    | ComC.Durable { tx } when tx.CMsg.slot = 0 -> feed commit
    | _ -> ()
  in
  let inputs = [ commit; ack 1; ack 2 ] in
  let core () = ComC.create ~self:0 ~nodes:nnodes () in
  let by_list =
    let st = core () in
    executed_by_list ~handle:(fun i -> snd (ComC.handle st i)) ~on_eff inputs
  in
  let by_stack =
    let st = core () in
    executed_by_stack ~filler:ComC.Flush ~handle_with:(ComC.handle_with st) ~on_eff inputs
  in
  Alcotest.(check bool) "stack order = list-then-iterate order" true (by_stack = by_list);
  let after_durable = drop_until (function ComC.Durable _ -> true | _ -> false) by_stack in
  match after_durable with
  | [
   ComC.Telemetry (ComC.Count ComC.C_started);
   ComC.Send { payload = CMsg.R_inv { tx = { slot = 1; _ }; _ }; _ };
   ComC.Send { payload = CMsg.R_inv { tx = { slot = 1; _ }; _ }; _ };
   ComC.Send { payload = CMsg.R_val { tx = { slot = 0; _ }; _ }; _ };
   ComC.Send { payload = CMsg.R_val { tx = { slot = 0; _ }; _ }; _ };
  ] ->
    ()
  | l ->
    Alcotest.failf "nested commit not spliced after Durable (%d effects follow it)"
      (List.length l)

let nested_unblock_request () =
  let oenv =
    { OwnC.now = 0.0; epoch = 0; live = Array.make nnodes true; self_alive = true;
      trace_on = false }
  in
  let dir _ = [ 1 ] in
  let request =
    OwnC.Api_request
      {
        key = 5;
        kind = OMsg.Acquire;
        facts = { OwnC.no_facts with OwnC.f_exists = true };
        env = oenv;
      }
  in
  let core () = OwnC.create ~self:0 ~nodes:nnodes () in
  (* The request's timeout timer, as a scratch core arms it. *)
  let timeout =
    List.find_map
      (function
        | OwnC.Set_timer { token; kind; _ } ->
          Some (OwnC.Timer_fire { token; kind; facts = OwnC.no_facts; env = oenv })
        | _ -> None)
      (snd (OwnC.handle ~dir (core ()) request))
    |> Option.get
  in
  (* The timed-out caller retries at once, from inside its [Unblock]; the
     timeout's cleanup timer follows the [Unblock] in the same input. *)
  let retried = ref false in
  let on_eff feed = function
    | OwnC.Unblock _ when not !retried ->
      retried := true;
      feed request
    | _ -> ()
  in
  let inputs = [ request; timeout ] in
  let by_list =
    let st = core () in
    retried := false;
    executed_by_list ~handle:(fun i -> snd (OwnC.handle ~dir st i)) ~on_eff inputs
  in
  let by_stack =
    let st = core () in
    retried := false;
    executed_by_stack ~filler:OwnC.Flush ~handle_with:(OwnC.handle_with ~dir st) ~on_eff
      inputs
  in
  Alcotest.(check bool) "stack order = list-then-iterate order" true (by_stack = by_list);
  let after_unblock = drop_until (function OwnC.Unblock _ -> true | _ -> false) by_stack in
  match (after_unblock, List.rev after_unblock) with
  | ( OwnC.Telemetry (OwnC.Count OwnC.C_started) :: _,
      OwnC.Set_timer { kind = OwnC.T_cleanup _; _ } :: _ ) ->
    Alcotest.(check int) "the retry's effects sit between Unblock and the cleanup timer"
      (List.length (snd (OwnC.handle ~dir (core ()) request)) + 1)
      (List.length after_unblock)
  | _ -> Alcotest.fail "nested request not spliced after Unblock"

let suite =
  [
    tc "commit cores replay from live-agent tap" commit_agent_replay;
    tc "ownership cores replay from live-agent tap" ownership_agent_replay;
    qtest commit_schedule_replays;
    qtest commit_emit_matches_list;
    qtest ownership_emit_matches_list;
    tc "effect stack: nested commit from Durable keeps list order" nested_durable_commit;
    tc "effect stack: nested request from Unblock keeps list order" nested_unblock_request;
  ]
