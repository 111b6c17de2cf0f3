(* The benchmark's traced run: replays a statement stream in-process
   against a Db.Database built from the same init script the server runs,
   and times the calls into each layer's public functions.

     servebench_trace.exe INIT_SQL STREAM WAL_DIR OUT_JSON SPANS_TSV

   STREAM holds one statement per line. The stream is replayed on two
   databases loaded from the same script, statement by statement in turn
   (which of the two goes first alternates), so a drift in the machine's
   speed reaches both alike:

   - untraced: Database.exec per statement, timed as a whole (the
     in-process cost the served latency is compared with);
   - traced: the same statements, each also driven stage by stage through
     the public functions (Sql.Parser, Database.plan_query, Placement,
     Database.physical, Database.run_plan, Audit_core.Lineage), then
     Database.exec; the evidence it defers is appended and synced through
     Audit_log.Wal, and request and reply go through the Server.Wire codec.

   Spans are kept in memory and written to SPANS_TSV at the end; the
   per-layer means go to OUT_JSON.

   This is a dune project of its own: the benchmark builds it in a
   workspace that links this directory's files beside the repository's
   libraries (see ../run.py). *)

let now = Engine_core.Mono_clock.now

(* ---------------------------------------------------------------- *)
(* Spans                                                            *)
(* ---------------------------------------------------------------- *)

type layer =
  | Parse
  | Bind
  | Place
  | Prune
  | Lower
  | Run
  | Lineage
  | Exec
  | Append
  | Sync
  | Codec

let layer_name = function
  | Parse -> "sql.parse"
  | Bind -> "plan.bind_optimize"
  | Place -> "core.placement"
  | Prune -> "plan.prune"
  | Lower -> "plan.lower"
  | Run -> "db.run_plan"
  | Lineage -> "core.lineage"
  | Exec -> "db.exec"
  | Append -> "audit_log.append"
  | Sync -> "audit_log.sync"
  | Codec -> "server.codec"

type span = { stmt : int; layer : layer; t0 : float; t1 : float }

let spans : span list ref = ref []

let span stmt layer f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  spans := { stmt; layer; t0; t1 } :: !spans;
  (r, t1 -. t0)

(* ---------------------------------------------------------------- *)
(* Inputs                                                           *)
(* ---------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let read_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")
  |> Array.of_list

let load init =
  let db = Db.Database.create () in
  ignore (Db.Database.exec_script db (read_file init));
  Db.Database.set_deferred_evidence db true;
  db

let open_wal path =
  if Sys.file_exists path then Sys.remove path;
  fst (Audit_log.Wal.open_ path)

(* Order-insensitive fingerprint of a reply, comparable with the served
   one (MD5 of its sorted lines). *)
let digest text =
  String.split_on_char '\n' text
  |> List.sort compare |> String.concat "\n" |> Digest.string
  |> Digest.to_hex

let evidence_ids records =
  List.fold_left
    (fun n r ->
      match r with
      | Audit_log.Wal.Accessed { ids; _ } -> n + List.length ids
      | _ -> n)
    0 records

let commit wal records =
  List.iter (Audit_log.Wal.append wal) records;
  if records <> [] then Audit_log.Wal.sync wal

let exec_text db sql =
  match Db.Database.exec db sql with
  | r -> Ok (Db.Database.result_to_string r)
  | exception e -> Error e

(* ---------------------------------------------------------------- *)
(* Untraced pass                                                    *)
(* ---------------------------------------------------------------- *)

(* One statement: its Database.exec time and the digest of its reply. *)
let untraced db wal sql =
  let t0 = now () in
  let out = exec_text db sql in
  let dt = now () -. t0 in
  commit wal (Db.Database.take_pending_evidence db);
  (dt, match out with Ok t -> digest t | Error _ -> "error")

(* ---------------------------------------------------------------- *)
(* Traced pass                                                      *)
(* ---------------------------------------------------------------- *)

type sums = {
  mutable n_all : int;
  mutable n_sel : int;
  mutable failed : int;
  mutable parse : float;
  mutable bind : float;
  mutable place : float;
  mutable lower : float;
  mutable run : float;
  mutable exec_all : float;
  mutable trigger : float;
  mutable append : float;
  mutable sync : float;
  mutable codec : float;
  mutable records : int;
  mutable ids : int;
  mutable rows_scanned : int;
  mutable probes : int;
  mutable hits : int;
  mutable trigger_rows : int;
  mutable exact_ids : int;
  mutable online_ids : int;
  dml : (string, float * int) Hashtbl.t;
}

let table_rows db name =
  match Storage.Catalog.find_opt (Db.Database.catalog db) name with
  | Some t -> Storage.Table.cardinality t
  | None -> 0

let log_rows db = table_rows db "access_log" + table_rows db "history"

let watched db =
  Audit_core.Trigger.watched_audits (Db.Database.trigger_manager db)
  |> List.map (Db.Database.audit_expr db)

(* The offline-exact lineage of a query is cached by its text until the next
   statement that is not a query (the streams' queries read no table their
   triggers write). *)
let lineage_ids db ~cache sql plan =
  match Hashtbl.find_opt cache sql with
  | Some n -> n
  | None ->
    let n =
      List.fold_left
        (fun n name ->
          let view = Db.Database.audit_view db name in
          n + List.length
                (Audit_core.Lineage.accessed (Db.Database.context db) ~view
                   plan))
        0
        (Audit_core.Trigger.watched_audits (Db.Database.trigger_manager db))
    in
    Hashtbl.replace cache sql n;
    n

(* One statement, stage by stage and then whole; returns its Database.exec
   time (0 when it does not parse). *)
let traced s db wal ~audits ~cache i sql =
  let ctx = Db.Database.context db in
  s.n_all <- s.n_all + 1;
  match span i Parse (fun () -> Sql.Parser.statement sql) with
  | exception _ ->
    s.failed <- s.failed + 1;
    0.
  | ast, t_parse ->
    s.parse <- s.parse +. t_parse;
    let staged =
      match ast with
      | Sql.Ast.S_select q -> (
        try
          let plan0, t_bind =
            span i Bind (fun () ->
                Db.Database.plan_query db ~audits:[] ~prune:false q)
          in
          let inst, t_place =
            span i Place (fun () ->
                Audit_core.Placement.instrument_all Audit_core.Placement.Hcn
                  ~audits plan0)
          in
          let plan, t_prune =
            span i Prune (fun () -> Plan.Optimizer.prune inst)
          in
          let _, t_lower =
            span i Lower (fun () -> Db.Database.physical db plan)
          in
          let _, t_run = span i Run (fun () -> Db.Database.run_plan db plan) in
          s.rows_scanned <- s.rows_scanned + ctx.Exec.Exec_ctx.rows_scanned;
          s.probes <- s.probes + ctx.Exec.Exec_ctx.audit_probes;
          s.hits <- s.hits + ctx.Exec.Exec_ctx.audit_hits;
          let exact, _ =
            span i Lineage (fun () -> lineage_ids db ~cache sql plan0)
          in
          s.bind <- s.bind +. t_bind +. t_prune;
          s.place <- s.place +. t_place;
          s.lower <- s.lower +. t_lower;
          s.run <- s.run +. (t_run -. t_lower);
          Some (t_parse +. t_bind +. t_place +. t_prune +. t_run, exact)
        with _ -> None)
      | _ ->
        Hashtbl.reset cache;
        None
    in
    let before = log_rows db in
    let out, t_exec = span i Exec (fun () -> exec_text db sql) in
    s.exec_all <- s.exec_all +. t_exec;
    s.trigger_rows <- s.trigger_rows + (log_rows db - before);
    let records = Db.Database.take_pending_evidence db in
    List.iter
      (fun r ->
        let (), dt = span i Append (fun () -> Audit_log.Wal.append wal r) in
        s.append <- s.append +. dt)
      records;
    if records <> [] then begin
      let (), dt = span i Sync (fun () -> Audit_log.Wal.sync wal) in
      s.sync <- s.sync +. dt
    end;
    s.records <- s.records + List.length records;
    let ids = evidence_ids records in
    s.ids <- s.ids + ids;
    (match (staged, out) with
    | Some (stages, exact), Ok _ ->
      s.n_sel <- s.n_sel + 1;
      s.trigger <- s.trigger +. (t_exec -. stages);
      if ids > 0 then begin
        s.exact_ids <- s.exact_ids + exact;
        s.online_ids <- s.online_ids + ids
      end
    | _ -> ());
    (match (ast, out) with
    | (Sql.Ast.S_update _ | Sql.Ast.S_insert _ | Sql.Ast.S_delete _), Ok _ ->
      let kind =
        match ast with
        | Sql.Ast.S_update _ -> "update"
        | Sql.Ast.S_insert _ -> "insert"
        | _ -> "delete"
      in
      let t, n = Option.value (Hashtbl.find_opt s.dml kind) ~default:(0., 0) in
      Hashtbl.replace s.dml kind (t +. t_exec, n + 1)
    | _ -> ());
    (match out with
    | Error _ -> s.failed <- s.failed + 1
    | Ok text ->
      let (), dt =
        span i Codec (fun () ->
            let req =
              Server.Wire.encode_request
                (Server.Wire.Exec { seq = i + 1; line = sql })
            in
            ignore (Server.Wire.decode_request req);
            let rep = Server.Wire.encode_response (Server.Wire.Result text) in
            ignore (Server.Wire.decode_response rep))
      in
      s.codec <- s.codec +. dt);
    t_exec

(* ---------------------------------------------------------------- *)
(* Output                                                           *)
(* ---------------------------------------------------------------- *)

let write_spans path =
  let oc = open_out path in
  output_string oc "stmt\tlayer\tstart_s\tend_s\n";
  List.iter
    (fun sp ->
      Printf.fprintf oc "%d\t%s\t%.6f\t%.6f\n" sp.stmt (layer_name sp.layer)
        sp.t0 sp.t1)
    (List.rev !spans);
  close_out oc

let us x = x *. 1e6
let per a b = if b = 0 then 0. else a /. float_of_int b

let metrics (s : sums) ~untraced_sum ~traced_sum =
  let dml kind =
    match Hashtbl.find_opt s.dml kind with
    | Some (t, n) -> us (per t n)
    | None -> 0.
  in
  [
    ("sql.parse_us", us (per s.parse s.n_all));
    ("plan.bind_optimize_us", us (per s.bind s.n_sel));
    ("plan.lower_us", us (per s.lower s.n_sel));
    ("core.placement_us", us (per s.place s.n_sel));
    ("core.accessed_ids_per_stmt", per (float_of_int s.ids) s.n_all);
    ( "core.exact_over_accessed",
      per (float_of_int s.exact_ids) s.online_ids );
    ("exec.run_us", us (per s.run s.n_sel));
    ("exec.rows_scanned_per_stmt", per (float_of_int s.rows_scanned) s.n_sel);
    ("exec.audit_probes_per_stmt", per (float_of_int s.probes) s.n_sel);
    ("exec.probe_hit_ratio", per (float_of_int s.hits) s.probes);
    ("db.exec_us", us (per s.exec_all s.n_all));
    ("db.trigger_us", us (per s.trigger s.n_sel));
    ("db.trigger_rows_per_stmt", per (float_of_int s.trigger_rows) s.n_all);
    ("db.update_us", dml "update");
    ("db.insert_us", dml "insert");
    ("db.delete_us", dml "delete");
    ("audit_log.append_us", us (per s.append s.n_all));
    ("audit_log.sync_us", us (per s.sync s.n_all));
    ("audit_log.records_per_stmt", per (float_of_int s.records) s.n_all);
    ("server.codec_us", us (per s.codec s.n_all));
    ( "trace.overhead_pct",
      if untraced_sum > 0. then 100. *. (traced_sum -. untraced_sum) /. untraced_sum
      else 0. );
  ]

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ init; stream_path; wal_dir; out; spans_path ] ->
    let stream = read_lines stream_path in
    let udb = load init and tdb = load init in
    let uwal = open_wal (Filename.concat wal_dir "untraced.wal")
    and twal = open_wal (Filename.concat wal_dir "traced.wal") in
    let audits = watched tdb and cache = Hashtbl.create 16 in
    let s =
      {
        n_all = 0; n_sel = 0; failed = 0; parse = 0.; bind = 0.; place = 0.;
        lower = 0.; run = 0.; exec_all = 0.; trigger = 0.; append = 0.;
        sync = 0.; codec = 0.; records = 0; ids = 0; rows_scanned = 0;
        probes = 0; hits = 0; trigger_rows = 0; exact_ids = 0;
        online_ids = 0; dml = Hashtbl.create 4;
      }
    in
    let exec_times = Array.make (Array.length stream) 0. in
    let times =
      Array.mapi
        (fun i sql ->
          let trace () =
            exec_times.(i) <- traced s tdb twal ~audits ~cache i sql
          in
          if i mod 2 = 1 then trace ();
          let r = untraced udb uwal sql in
          if i mod 2 = 0 then trace ();
          r)
        stream
    in
    Audit_log.Wal.close uwal;
    Audit_log.Wal.close twal;
    let untraced_failed =
      Array.fold_left (fun n (_, d) -> if d = "error" then n + 1 else n) 0 times
    in
    write_spans spans_path;
    let untraced_sum = Array.fold_left (fun a (t, _) -> a +. t) 0. times in
    let traced_sum = Array.fold_left ( +. ) 0. exec_times in
    let oc = open_out out in
    Printf.fprintf oc "{\"statements\": %d, \"failed\": %d, \"metrics\": {%s},\n"
      (Array.length stream) (s.failed + untraced_failed)
      (String.concat ", "
         (List.map
            (fun (k, v) -> Printf.sprintf "%S: %.17g" k v)
            (metrics s ~untraced_sum ~traced_sum)));
    Printf.fprintf oc "\"untraced_exec_us\": [%s],\n"
      (String.concat ", "
         (Array.to_list
            (Array.map (fun (t, _) -> Printf.sprintf "%.3f" (us t)) times)));
    Printf.fprintf oc "\"digests\": [%s]}\n"
      (String.concat ", "
         (Array.to_list (Array.map (fun (_, d) -> Printf.sprintf "%S" d) times)));
    close_out oc
  | _ ->
    prerr_endline
      "usage: servebench_trace INIT_SQL STREAM WAL_DIR OUT_JSON SPANS_TSV";
    exit 2
