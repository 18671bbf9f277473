(** Configuration-file front end (step 2 of the compiler flow,
    Fig. 4): parses the JSON file of Fig. 5 into validated host and
    accelerator descriptions, and can serialise them back. *)

val parse_string_result : string -> (Host_config.t * Accel_config.t, string) result
(** Every malformed input — invalid JSON, a non-object document, a
    missing section, a missing or mistyped field, a failed consistency
    check — yields [Error] with a field-qualified message
    ("config: expected a JSON object", "cpu.caches[0].assoc: must be
    positive"), never an exception. *)

val parse_file_result : string -> (Host_config.t * Accel_config.t, string) result
(** As {!parse_string_result}, prefixed with ["FILE: "]; [Error]
    additionally covers unreadable files. *)

val to_string : Host_config.t -> Accel_config.t -> string
(** Pretty-printed JSON, parseable by {!parse_string_result}. *)

val write_file : string -> Host_config.t -> Accel_config.t -> unit
(** {!to_string} plus a trailing newline. *)
