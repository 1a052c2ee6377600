(* Two cache tiers behind one mutex. The memory tier is a Hashtbl with
   a logical clock for LRU (eviction scans for the minimum stamp — O(n)
   per eviction, which is noise at the few-hundred-entry capacities the
   server runs). The disk tier is one file per key, written with the
   same temp+rename discipline as Fuzz.Corpus so a crash mid-write can
   never corrupt a later read — and, since this PR, byte-budgeted: an
   in-memory index (seeded from an mtime-ordered directory scan at
   create) tracks per-entry sizes and recency stamps, and stores evict
   least-recently-used entries until usage fits the budget again. *)

type entry = { value : string; mutable stamp : int }
type disk_entry = { size : int; mutable dstamp : int }

type t = {
  lock : Mutex.t;
  mem : (string, entry) Hashtbl.t;
  capacity : int;
  dir : string option;
  disk_budget : int option;
  disk : (string, disk_entry) Hashtbl.t;
  mutable disk_bytes : int;
  mutable disk_evictions : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable disk_hits : int;
  mutable evictions : int;
}

let entry_file key = key ^ ".cache"
let file_key f = Filename.chop_suffix f ".cache"

(* LRU order survives a restart only as well as it is recorded. The
   mtime scan is the fallback — it sees writes but not reads, so an
   entry kept hot purely by hits looks cold after a restart. A clean
   (draining) shutdown therefore flushes the true recency order to this
   index file, which the next create consumes (and deletes: once the
   process is live the index is immediately stale). No ".cache" suffix,
   so the directory scan never mistakes it for an entry. *)
let index_file = "index.caqr"

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let publish_disk_gauges t =
  if t.dir <> None then begin
    Obs.Metrics.set_gauge "serve.cache.disk.bytes" t.disk_bytes;
    Obs.Metrics.set_gauge "serve.cache.disk.entries" (Hashtbl.length t.disk)
  end

(* Rebuild the disk index from the directory. A flushed index file (one
   key per line, oldest first) pins the exact LRU order the previous
   process ended with; entries it doesn't mention were written after
   the flush, so they rank newest, among themselves in mtime order.
   With no index — a crash — mtime order (oldest first, name as
   tie-break) is the best the filesystem records. *)
let scan_disk t =
  match t.dir with
  | None -> ()
  | Some dir ->
    if Sys.file_exists dir && Sys.is_directory dir then begin
      let rank = Hashtbl.create 64 in
      let index_path = Filename.concat dir index_file in
      if Sys.file_exists index_path then begin
        (match Guard.File.read index_path with
        | body ->
          List.iteri
            (fun i k -> if k <> "" then Hashtbl.replace rank k i)
            (String.split_on_char '\n' body)
        | exception Sys_error _ -> ());
        (try Sys.remove index_path with Sys_error _ -> ())
      end;
      let order (k, _, mtime) =
        match Hashtbl.find_opt rank k with
        | Some i -> (0, i, 0., k)
        | None -> (1, 0, mtime, k)
      in
      let entries =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               Filename.check_suffix f ".cache"
               && String.length f > 0
               && f.[0] <> '.')
        |> List.filter_map (fun f ->
               match Unix.stat (Filename.concat dir f) with
               | st -> Some (file_key f, st.Unix.st_size, st.Unix.st_mtime)
               | exception Unix.Unix_error _ -> None)
        |> List.sort (fun a b -> compare (order a) (order b))
      in
      List.iter
        (fun (key, size, _) ->
          Hashtbl.replace t.disk key { size; dstamp = tick t };
          t.disk_bytes <- t.disk_bytes + size)
        entries;
      publish_disk_gauges t
    end

let create ?(mem_capacity = 256) ?dir ?disk_budget_bytes () =
  let t =
    {
      lock = Mutex.create ();
      mem = Hashtbl.create 64;
      capacity = max 0 mem_capacity;
      dir;
      disk_budget = Option.map (max 0) disk_budget_bytes;
      disk = Hashtbl.create 64;
      disk_bytes = 0;
      disk_evictions = 0;
      clock = 0;
      hits = 0;
      misses = 0;
      disk_hits = 0;
      evictions = 0;
    }
  in
  scan_disk t;
  t

let key ~op ~digest ~fingerprint =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ Caqr.Version.engine; op; digest; fingerprint ]))

(* ---- disk tier ---- *)

(* Deleting the file before dropping the index entry is the crash-safe
   order: a crash in between leaves an index that merely overcounts
   until the next restart's scan, never a file the index forgot (which
   would leak disk forever). *)
let disk_evict_past_budget t dir =
  match t.disk_budget with
  | None -> ()
  | Some budget ->
    while t.disk_bytes > budget && Hashtbl.length t.disk > 0 do
      let victim =
        Hashtbl.fold
          (fun k e acc ->
            match acc with
            | Some (_, best) when best.dstamp <= e.dstamp -> acc
            | _ -> Some (k, e))
          t.disk None
      in
      match victim with
      | Some (k, e) ->
        (try Sys.remove (Filename.concat dir (entry_file k))
         with Sys_error _ -> ());
        Hashtbl.remove t.disk k;
        t.disk_bytes <- t.disk_bytes - e.size;
        t.disk_evictions <- t.disk_evictions + 1;
        Obs.Metrics.incr "serve.cache.disk.evict"
      | None -> ()
    done

let disk_note t key size =
  (match Hashtbl.find_opt t.disk key with
  | Some old -> t.disk_bytes <- t.disk_bytes - old.size
  | None -> ());
  Hashtbl.replace t.disk key { size; dstamp = tick t };
  t.disk_bytes <- t.disk_bytes + size

let disk_find t key =
  match t.dir with
  | None -> None
  | Some dir ->
    let path = Filename.concat dir (entry_file key) in
    if Sys.file_exists path then
      match Guard.File.read path with
      | v ->
        (* Refresh recency; adopt entries a sibling process wrote. *)
        (match Hashtbl.find_opt t.disk key with
        | Some e -> e.dstamp <- tick t
        | None -> disk_note t key (String.length v));
        Some v
      | exception Sys_error _ -> None
    else None

let disk_store t key value =
  match t.dir with
  | None -> ()
  | Some dir ->
    let size = String.length value in
    (* An entry bigger than the whole budget would only evict everything
       else and then itself; don't let it touch the tier at all. *)
    let oversized =
      match t.disk_budget with Some b -> size > b | None -> false
    in
    if oversized then Obs.Metrics.incr "serve.cache.disk.oversized"
    else begin
      Guard.File.mkdir_p dir;
      Guard.File.write_atomic ~dir ~file:(entry_file key) value;
      disk_note t key size;
      disk_evict_past_budget t dir;
      publish_disk_gauges t
    end

(* ---- memory tier ---- *)

let evict_past_capacity t =
  while Hashtbl.length t.mem > t.capacity do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, stamp) when stamp <= e.stamp -> acc
          | _ -> Some (k, e.stamp))
        t.mem None
    in
    match victim with
    | Some (k, _) ->
      Hashtbl.remove t.mem k;
      t.evictions <- t.evictions + 1;
      Obs.Metrics.incr "serve.cache.evict"
    | None -> ()
  done

let mem_insert t key value =
  if t.capacity > 0 then begin
    Hashtbl.replace t.mem key { value; stamp = tick t };
    evict_past_capacity t
  end

let locked t f = Mutex.protect t.lock f

let find t key =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.mem key with
  | Some e ->
    e.stamp <- tick t;
    t.hits <- t.hits + 1;
    Obs.Metrics.incr "serve.cache.hit";
    Some e.value
  | None ->
    (match disk_find t key with
     | Some v ->
       (* Promote: the disk tier survives restarts, the memory tier
          serves the hot set. *)
       mem_insert t key v;
       t.hits <- t.hits + 1;
       t.disk_hits <- t.disk_hits + 1;
       Obs.Metrics.incr "serve.cache.hit";
       Obs.Metrics.incr "serve.cache.disk.hit";
       Some v
     | None ->
       t.misses <- t.misses + 1;
       Obs.Metrics.incr "serve.cache.miss";
       None)

let store t key value =
  locked t @@ fun () ->
  mem_insert t key value;
  disk_store t key value

(* Persist the disk tier's LRU order (oldest first). Called from the
   draining shutdown path; safe to call on a cache with no disk tier. *)
let flush t =
  locked t @@ fun () ->
  match t.dir with
  | None -> ()
  | Some dir ->
    let entries =
      Hashtbl.fold (fun k e acc -> (e.dstamp, k) :: acc) t.disk []
      |> List.sort compare
    in
    Guard.File.mkdir_p dir;
    Guard.File.write_atomic ~dir ~file:index_file
      (String.concat "" (List.map (fun (_, k) -> k ^ "\n") entries));
    Obs.Metrics.incr "serve.cache.disk.flush"

let stats t =
  locked t @@ fun () ->
  [
    ("hits", t.hits);
    ("misses", t.misses);
    ("disk_hits", t.disk_hits);
    ("evictions", t.evictions);
    ("mem_entries", Hashtbl.length t.mem);
    ("disk_entries", Hashtbl.length t.disk);
    ("disk_bytes", t.disk_bytes);
    ("disk_evictions", t.disk_evictions);
  ]
