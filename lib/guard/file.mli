(** Crash-safe file helpers shared by the service's disk cache and the
    fuzz corpus. *)

(** Whole file contents. Raises [Sys_error]. *)
val read : string -> string

(** [mkdir_p dir] creates [dir] and any missing parents (mode 0755). *)
val mkdir_p : string -> unit

(** [write_atomic ?site ~dir ~file content] writes [content] to a
    dot-prefixed temp file in [dir], then renames it onto [file] in one
    step. Readers only ever open the final name, so a crash mid-write
    leaves the previous contents (or nothing) and an invisible temp.
    [site], when given, is an {!Inject} site hit between the write and
    the close; on any failure the temp file is removed and the exception
    re-raised. *)
val write_atomic : ?site:string -> dir:string -> file:string -> string -> unit
