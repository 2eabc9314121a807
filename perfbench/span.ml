(* In-memory span recorder for the traced run.  A span is recorded around
   each call the benchmark makes into a layer: its name, start, end, the
   span that was open when it started (its parent) and the round id.  Spans
   stay in memory until the run ends; layer self times are derived from
   them afterwards.

   A span name is "<layer>" or "<layer>:<part>"; everything before the
   colon is the layer the span's self time is charged to. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (* -1 for a root span *)
  round : int;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable open_ : int list;  (* innermost open span first *)
  mutable round : int;
}

let create () = { spans = []; next_id = 0; open_ = []; round = -1 }
let set_round t r = t.round <- r

let record t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  let round = t.round in
  t.open_ <- id :: t.open_;
  let start = Unix.gettimeofday () in
  let close () =
    let stop = Unix.gettimeofday () in
    t.open_ <- List.tl t.open_;
    t.spans <- { id; name; start; stop; parent; round } :: t.spans
  in
  match f () with
  | r ->
      close ();
      r
  | exception e ->
      close ();
      raise e

let spans t = List.rev t.spans

let layer_of name =
  match String.index_opt name ':' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time of every span: its duration minus the part its children
   cover.  Children never outlive their parent (spans nest strictly). *)
let self_times t =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0. in
        Hashtbl.replace child s.parent (prev +. (s.stop -. s.start)))
    t.spans;
  List.map
    (fun s ->
      let covered = Option.value (Hashtbl.find_opt child s.id) ~default:0. in
      (s, s.stop -. s.start -. covered))
    (spans t)

(* Self seconds per span name ("<layer>:<part>" kept apart). *)
let self_by_name t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value (Hashtbl.find_opt tbl s.name) ~default:0. in
      Hashtbl.replace tbl s.name (prev +. self))
    (self_times t);
  tbl

(* Write spans as tab-separated rows: id, parent, round, name, start, end. *)
let write t path =
  let oc = open_out path in
  output_string oc "id\tparent\tround\tname\tstart_s\tend_s\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.9f\t%.9f\n" s.id s.parent s.round
        s.name s.start s.stop)
    (spans t);
  close_out oc
