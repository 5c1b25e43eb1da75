(** Trusted-server baseline: access control evaluated by the DSP itself on
    plaintext.

    This is the conventional architecture whose erosion of trust motivates
    the paper; it serves as the latency lower bound in the end-to-end
    benchmark (no decryption on the client path, only the authorized view
    crosses the wire) and as the trust ceiling (the DSP sees everything). *)

type result = {
  view : Sdds_xml.Dom.t option;
  view_bytes : int;  (** plaintext bytes sent to the client *)
  server_events : int;  (** events the server's evaluator processed *)
}

val evaluate :
  ?query:Sdds_xpath.Ast.t ->
  rules:Sdds_core.Rule.t list ->
  Sdds_xml.Dom.t ->
  result
