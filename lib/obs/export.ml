(* Trace sinks: render the recorded rings as a human-readable dump or as
   Chrome trace-event JSON (the format Perfetto / chrome://tracing load).

   Lane model: every ring (engine, partition bridge) is one synthetic
   "thread" of this process, and every OS thread observed in port-operation
   events gets its own task lane. Blocking operations become duration ("X")
   slices from submit to complete or abort, with their park/wake span
   nested inside; everything else is an instant event. *)

let vname v = !Obs.vertex_namer v

(* Synthetic tids for ring lanes, far above any plausible OS thread id. *)
let lane_base = 900_000
let ring_tid r = lane_base + Obs.ring_id r

let dump ?rings () =
  let rings = match rings with Some rs -> rs | None -> Obs.rings () in
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "=== %s: %d events (%d dropped)\n" (Obs.ring_label r)
           (Obs.recorded r) (Obs.dropped r));
      let t0 = ref nan in
      List.iter
        (fun (e : Obs.event) ->
          if Float.is_nan !t0 then t0 := e.e_ts;
          let detail =
            match e.e_kind with
            | Obs.Fire ->
              Printf.sprintf "sync=%d%s" e.e_a
                (if e.e_b >= 0 then " at=" ^ vname e.e_b else "")
            | Obs.Submit_send | Obs.Submit_recv | Obs.Park | Obs.Wake
            | Obs.Complete_send | Obs.Complete_recv | Obs.Stall | Obs.Abort ->
              Printf.sprintf "%s tid=%d" (vname e.e_a) e.e_b
            | Obs.Expansion -> Printf.sprintf "total=%d new=%d" e.e_a e.e_b
            | Obs.Poison -> ""
            | Obs.Slot_put | Obs.Slot_take -> vname e.e_a
            | Obs.Wake_targeted ->
              Printf.sprintf "%s parked=%d" (vname e.e_a) e.e_b
            | Obs.Wake_broadcast -> Printf.sprintf "waiters=%d" e.e_a
          in
          Buffer.add_string buf
            (Printf.sprintf "  +%.6f d%d %-14s %s\n" (e.e_ts -. !t0) e.e_dom
               (Obs.kind_name e.e_kind) detail))
        (Obs.events r))
    rings;
  Buffer.contents buf

(* --- Chrome trace-event JSON ------------------------------------------------ *)

type out_event = {
  o_name : string;
  o_cat : string;
  o_ph : string;  (* "X" | "i" | "M" *)
  o_ts : float;  (* microseconds *)
  o_dur : float;  (* microseconds, X only *)
  o_tid : int;
  o_args : (string * string) list;  (* pre-rendered JSON values *)
}

let categories_of_kind = function
  | Obs.Fire | Obs.Expansion | Obs.Poison -> "engine"
  | Obs.Submit_send | Obs.Submit_recv | Obs.Complete_send | Obs.Complete_recv
  | Obs.Abort ->
    "port"
  | Obs.Park | Obs.Wake | Obs.Wake_targeted | Obs.Wake_broadcast -> "sched"
  | Obs.Stall -> "stall"
  | Obs.Slot_put | Obs.Slot_take -> "bridge"

let chrome ?rings () =
  let rings = match rings with Some rs -> rs | None -> Obs.rings () in
  let pid = Unix.getpid () in
  (* Epoch of the whole trace, so timestamps are small and lanes align. *)
  let t0 =
    List.fold_left
      (fun acc r ->
        match Obs.events r with
        | [] -> acc
        | e :: _ -> Float.min acc e.Obs.e_ts)
      infinity rings
  in
  let t0 = if t0 = infinity then 0.0 else t0 in
  let us t = (t -. t0) *. 1e6 in
  let out = ref [] in
  let push e = out := e :: !out in
  (* tid -> recording domain (-1 when only inferred from leftovers), so the
     lane metadata can say which domain a task thread lived in. *)
  let task_lanes = Hashtbl.create 16 in
  let task_lane ?dom tid =
    match dom with
    | Some d -> Hashtbl.replace task_lanes tid d
    | None -> if not (Hashtbl.mem task_lanes tid) then Hashtbl.add task_lanes tid (-1)
  in
  List.iter
    (fun r ->
      let lane = ring_tid r in
      push
        {
          o_name = "thread_name";
          o_cat = "__metadata";
          o_ph = "M";
          o_ts = 0.0;
          o_dur = 0.0;
          o_tid = lane;
          o_args = [ ("name", Printf.sprintf "\"%s\"" (Json.escape (Obs.ring_label r))) ];
        };
      (* Pending submit / park events awaiting their partner. *)
      let pending_op : (int * int * bool, float) Hashtbl.t = Hashtbl.create 16 in
      let pending_park : (int, float) Hashtbl.t = Hashtbl.create 16 in
      (* Per-lane clamp so exported instants are non-decreasing even if the
         system clock stepped mid-trace. *)
      let last = ref neg_infinity in
      let mono t =
        let t = Float.max t !last in
        last := t;
        t
      in
      (* Domain of the event currently being rendered (events are walked in
         order, so instants and slices pick it up without re-plumbing). *)
      let cur_dom = ref 0 in
      let dom_arg () = ("dom", string_of_int !cur_dom) in
      let instant ?(tid = lane) ?(args = []) name kind ts =
        push
          {
            o_name = name;
            o_cat = categories_of_kind kind;
            o_ph = "i";
            o_ts = us ts;
            o_dur = 0.0;
            o_tid = tid;
            o_args = ("s", "\"t\"") :: dom_arg () :: args;
          }
      in
      (* A port operation from its submit to its completion or abort, on
         the lane of the task thread that issued it. *)
      let op_slice name (e : Obs.event) start ts =
        push
          {
            o_name = name;
            o_cat = "port";
            o_ph = "X";
            o_ts = us start;
            o_dur = Float.max 0.01 (us ts -. us start);
            o_tid = e.e_b;
            o_args =
              [
                ("vertex", Printf.sprintf "\"%s\"" (Json.escape (vname e.e_a)));
                dom_arg ();
              ];
          }
      in
      List.iter
        (fun (e : Obs.event) ->
          let ts = mono e.e_ts in
          cur_dom := e.e_dom;
          match e.e_kind with
          | Obs.Fire ->
            instant
              (if e.e_b >= 0 then "fire " ^ vname e.e_b else "fire")
              Obs.Fire ts
              ~args:[ ("sync", string_of_int e.e_a) ]
          | Obs.Expansion ->
            instant "expansion" Obs.Expansion ts
              ~args:
                [ ("total", string_of_int e.e_a); ("new", string_of_int e.e_b) ]
          | Obs.Poison -> instant "poison" Obs.Poison ts
          | Obs.Wake_targeted ->
            instant
              ("wake " ^ vname e.e_a)
              Obs.Wake_targeted ts
              ~args:[ ("parked", string_of_int e.e_b) ]
          | Obs.Wake_broadcast ->
            instant "wake-broadcast" Obs.Wake_broadcast ts
              ~args:[ ("waiters", string_of_int e.e_a) ]
          | Obs.Slot_put -> instant ("put " ^ vname e.e_a) Obs.Slot_put ts
          | Obs.Slot_take -> instant ("take " ^ vname e.e_a) Obs.Slot_take ts
          | Obs.Submit_send ->
            Hashtbl.replace pending_op (e.e_b, e.e_a, true) ts
          | Obs.Submit_recv ->
            Hashtbl.replace pending_op (e.e_b, e.e_a, false) ts
          | Obs.Park -> Hashtbl.replace pending_park e.e_b ts
          | Obs.Wake -> begin
            task_lane ~dom:e.e_dom e.e_b;
            match Hashtbl.find_opt pending_park e.e_b with
            | None -> instant ~tid:e.e_b "wake" Obs.Wake ts
            | Some start ->
              Hashtbl.remove pending_park e.e_b;
              push
                {
                  o_name = "park";
                  o_cat = "sched";
                  o_ph = "X";
                  o_ts = us start;
                  o_dur = Float.max 0.01 (us ts -. us start);
                  o_tid = e.e_b;
                  o_args = [ dom_arg () ];
                }
          end
          | Obs.Complete_send | Obs.Complete_recv ->
            let is_send = e.e_kind = Obs.Complete_send in
            let opname = if is_send then "send" else "recv" in
            task_lane ~dom:e.e_dom e.e_b;
            (match Hashtbl.find_opt pending_op (e.e_b, e.e_a, is_send) with
             | None ->
               instant ~tid:e.e_b
                 (opname ^ " " ^ vname e.e_a)
                 e.e_kind ts
             | Some start ->
               Hashtbl.remove pending_op (e.e_b, e.e_a, is_send);
               op_slice (opname ^ " " ^ vname e.e_a) e start ts)
          | Obs.Abort ->
            (* A thread has at most one operation in flight, so the
               direction needs no recording: close whichever is pending. *)
            task_lane ~dom:e.e_dom e.e_b;
            List.iter
              (fun is_send ->
                match Hashtbl.find_opt pending_op (e.e_b, e.e_a, is_send) with
                | None -> ()
                | Some start ->
                  Hashtbl.remove pending_op (e.e_b, e.e_a, is_send);
                  op_slice
                    ((if is_send then "send " else "recv ") ^ vname e.e_a
                     ^ " (aborted)")
                    e start ts)
              [ true; false ]
          | Obs.Stall ->
            task_lane ~dom:e.e_dom e.e_b;
            instant ~tid:e.e_b ("stall " ^ vname e.e_a) Obs.Stall ts)
        (Obs.events r);
      (* Ops still pending at export time are blocked right now: they
         surface as instants so nothing silently disappears. *)
      Hashtbl.iter
        (fun (tid, v, is_send) start ->
          task_lane tid;
          instant ~tid
            ((if is_send then "blocked send " else "blocked recv ") ^ vname v)
            (if is_send then Obs.Submit_send else Obs.Submit_recv)
            start)
        pending_op)
    rings;
  Hashtbl.iter
    (fun tid dom ->
      let label =
        if dom >= 0 then Printf.sprintf "task-%d@d%d" tid dom
        else Printf.sprintf "task-%d" tid
      in
      push
        {
          o_name = "thread_name";
          o_cat = "__metadata";
          o_ph = "M";
          o_ts = 0.0;
          o_dur = 0.0;
          o_tid = tid;
          o_args = [ ("name", Printf.sprintf "\"%s\"" label) ];
        })
    task_lanes;
  let buf = Buffer.create 16384 in
  Buffer.add_string buf "{\"traceEvents\": [";
  List.iteri
    (fun i e ->
      let args =
        match e.o_args with
        | [] -> ""
        | kvs ->
          Printf.sprintf ", \"args\": {%s}"
            (String.concat ", "
               (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) kvs))
      in
      let dur =
        if e.o_ph = "X" then Printf.sprintf ", \"dur\": %.3f" e.o_dur else ""
      in
      Buffer.add_string buf
        (Printf.sprintf
           "%s\n {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%s\", \"ts\": \
            %.3f%s, \"pid\": %d, \"tid\": %d%s}"
           (if i = 0 then "" else ",")
           (Json.escape e.o_name) e.o_cat e.o_ph e.o_ts dur pid e.o_tid args))
    (List.rev !out);
  Buffer.add_string buf
    (Printf.sprintf
       "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"pid\": \"%d\", \
        \"correlation\": \"%d\"}}\n"
       pid (Obs.correlation ()));
  Buffer.contents buf
