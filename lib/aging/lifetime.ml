let degradation_at config net ~node_sp ~standby ~time =
  let config = { config with Circuit_aging.time } in
  (Circuit_aging.analyze config net ~node_sp ~standby ()).Circuit_aging.degradation

let solve config net ~node_sp ~standby ~margin ?(t_min = 3600.0) ?(t_max = Physics.Units.years 30.0)
    () =
  if margin <= 0.0 then invalid_arg "Lifetime.solve: margin must be positive";
  if t_min <= 0.0 || t_max <= t_min then invalid_arg "Lifetime.solve: bad time bounds";
  let deg time = degradation_at config net ~node_sp ~standby ~time in
  if deg t_max <= margin then `Never_fails
  else if deg t_min > margin then `Fails_immediately
  else begin
    (* Bisection on log time: degradation is monotone in time. *)
    let f log_t = deg (Float.exp log_t) -. margin in
    let log_t =
      Physics.Numerics.bisect ~tol:0.01 ~f (Float.log t_min) (Float.log t_max)
    in
    `Lifetime (Float.exp log_t)
  end
