(** Umbrella for the dialect libraries. *)

val register_all : unit -> unit
(** Does nothing. Every dialect's per-op checks are reached through
    {!Verifier}'s static dispatch, so there is nothing to register; this
    stays only for callers written before that, and new code should not
    call it. *)
