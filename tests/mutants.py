"""A catalogue of single-site mutants of the package, each killed by tier-1.

Each entry is (file under src/trajopt, old text, new text, the test that
kills it). `test_mutant_sites.py` checks in tier-1 that every old text still
occurs exactly once in its file and that every named test exists, so the
catalogue cannot rot in silence; `run_mutants.py` applies each mutant to a
temporary copy of the repository and runs the suite on it. pytest collects
neither module: their names do not start with `test_`.
"""

MUTANTS = (
    # the iLQR guards' rounding slack, loosened and tightened
    ("backward.py", "PSD_SLACK = 1e-10", "PSD_SLACK = 1e-3",
     "tests/test_backward.py::test_ilqr_quu_guard_tolerates_rounding_and_no_more"),
    ("backward.py", "PSD_SLACK = 1e-10", "PSD_SLACK = 1e-12",
     "tests/test_backward.py::test_ilqr_quu_guard_tolerates_rounding_and_no_more"),
    # the control axis of fxu reversed, in the sweep's tensor and in the QP
    ("backward.py",
     "tensor[:, :, x, u], tensor[:, :, u, x] = exp.fxu, exp.fxu.transpose(0, 1, 3, 2)",
     "tensor[:, :, x, u], tensor[:, :, u, x] = "
     "exp.fxu[..., ::-1], exp.fxu[..., ::-1].transpose(0, 1, 3, 2)",
     "tests/test_properties.py::test_every_sweep_matches_the_kkt_oracle_on_random_expansions"),
    ("kkt.py", 'cross = np.einsum("ti,tijk->tjk", w, exp.fxu[1:])',
     'cross = np.einsum("ti,tijk->tjk", w, exp.fxu[1:, ..., ::-1])',
     "tests/test_properties.py::test_every_sweep_matches_the_kkt_oracle_on_random_expansions"),
    # boundaries: a ratio of exactly SIGMA, a state of exactly the limit, a
    # cost change of exactly step_tol
    ("linesearch.py", "if ratio > SIGMA:", "if ratio >= SIGMA:",
     "tests/test_linesearch.py::test_accept_rejects_a_ratio_of_exactly_sigma"),
    ("trajectory.py", "if not abs(c) <= STATE_MAGNITUDE_LIMIT:",
     "if not abs(c) < STATE_MAGNITUDE_LIMIT:",
     "tests/test_trajectory.py::test_rollout_divergence_guard_is_a_closed_bound"),
    ("solver.py", "if abs(record.dj_realized) <= config.step_tol:",
     "if abs(record.dj_realized) < config.step_tol:",
     "tests/test_solver.py::test_converged_predicate_thresholds"),
    # a NaN slope is not a descent direction
    ("linesearch.py", "if not slope < 0.0:", "if slope >= 0.0:",
     "tests/test_linesearch.py::test_line_search_refuses_a_nan_slope_before_any_forward_pass"),
    # a 1e-4 relative error in one cart-pole fxx term
    ("models.py", "n1_tw = 2.0 * m * L * w * c", "n1_tw = 2.0002 * m * L * w * c",
     "tests/test_models.py::test_analytic_derivatives_match_finite_differences"),
    # the derivative check's tolerance, loosened a hundredfold
    ("kkt.py", "DERIVATIVE_TOL = 1e-7", "DERIVATIVE_TOL = 1e-5",
     "tests/test_models.py::test_check_derivatives_flags_a_second_derivative_off_by_1e_6"),
    # a check that passes unless its error exceeds the tolerance: a NaN passes
    ("kkt.py", "return self.max_rel_err <= self.tol", "return not self.max_rel_err > self.tol",
     "tests/test_kkt.py::test_verify_equivalence_fails_a_nan_value_hessian"),
    # the forward pass's gain check blind to the state dimension: _feedback's
    # zip then truncates a gain row into a trajectory
    ("linesearch.py",
     'sol.check_gains(*nominal.controls.shape, nominal.states.shape[1], "nominal")',
     'sol.check_gains(*nominal.controls.shape, sol.K.shape[2], "nominal")',
     "tests/test_linesearch.py::test_forward_pass_rejects_gains_of_another_dimension"),
    # the upper bound of each tolerance dropped: an infinite grad_tol stops a
    # solve at once, an infinite oracle tol passes every sweep
    ("solver.py", "0 < self.grad_tol < np.inf and 0 < self.step_tol < np.inf",
     "0 < self.grad_tol and 0 < self.step_tol",
     "tests/test_solver.py::test_solver_config_rejects_infinite_tolerances"),
    ("kkt.py", "if not 0 < tol < np.inf:", "if not 0 < tol:",
     "tests/test_kkt.py::test_oracle_rejects_bad_inputs"),
    # cos(2 theta) of the cart-pole's partials rounded another way: only the
    # golden of full solves sees a rounding-level change of a solve
    ("models.py", "c2 = c * c - s * s", "c2 = (c - s) * (c + s)",
     "tests/test_golden.py::test_full_solves_match_the_golden"),
)
