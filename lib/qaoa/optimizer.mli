(** Derivative-free optimizer for the QAOA classical loop.

    The paper uses Qiskit's COBYLA; [cobyla_lite] is a
    linear-approximation trust-region method in the same family
    (DESIGN.md substitutions). It reports the best objective value seen
    after each evaluation, which is what Figs. 15–16 plot. *)

type trace = {
  best_params : float array;
  best_value : float;
  history : float list;
      (** best-so-far objective after each function evaluation, oldest first *)
}

(** [cobyla_lite ~max_evals ~init ~rho_start ~rho_end f]: keeps an [n+1]
    point simplex, fits a linear model through it, and steps to the model
    minimizer within the trust radius [rho], shrinking [rho] on failure —
    COBYLA's control structure without the (here unused) constraint
    machinery. *)
val cobyla_lite :
  max_evals:int ->
  init:float array ->
  rho_start:float ->
  rho_end:float ->
  (float array -> float) ->
  trace
