type t = {
  rows : int;
  cols : int;
  block_c : float;
  lateral_g : float;
  package_g : float;
  package_c : float;
  sink_r : float;
  t_amb : float;
}

let create ?(rows = 4) ?(cols = 4) ?(block_c = 2.0) ?(lateral_g = 1.5) ?(package_g = 0.8)
    ?(package_c = 400.0) ?(sink_r = 0.32) ?(t_amb = 323.0) () =
  if rows < 1 || cols < 1 then invalid_arg "Grid.create: empty grid";
  if block_c <= 0.0 || package_c <= 0.0 || sink_r <= 0.0 then
    invalid_arg "Grid.create: non-positive thermal parameters";
  { rows; cols; block_c; lateral_g; package_g; package_c; sink_r; t_amb }

let n_blocks g = g.rows * g.cols

let uniform_state g ~temp_k = Array.make (n_blocks g + 1) temp_k

let neighbours g i =
  let r = i / g.cols and c = i mod g.cols in
  List.filter_map
    (fun (dr, dc) ->
      let r' = r + dr and c' = c + dc in
      if r' >= 0 && r' < g.rows && c' >= 0 && c' < g.cols then Some ((r' * g.cols) + c') else None)
    [ (-1, 0); (1, 0); (0, -1); (0, 1) ]

(* One backward-Euler step: solve (I + dt A) T' = T + dt b by Gauss-Seidel;
   the system is strictly diagonally dominant, so this converges fast. *)
let step g ~state ~powers ~dt =
  let n = n_blocks g in
  assert (Array.length state = n + 1 && Array.length powers = n);
  assert (dt > 0.0);
  let next = Array.copy state in
  for _ = 1 to 60 do
    for i = 0 to n - 1 do
      let neigh = neighbours g i in
      let g_sum =
        (float_of_int (List.length neigh) *. g.lateral_g) +. g.package_g
      in
      let flow_in =
        List.fold_left (fun acc j -> acc +. (g.lateral_g *. next.(j))) 0.0 neigh
        +. (g.package_g *. next.(n))
      in
      next.(i) <-
        (state.(i) +. (dt /. g.block_c *. (powers.(i) +. flow_in)))
        /. (1.0 +. (dt /. g.block_c *. g_sum))
    done;
    let into_pkg =
      let sum = ref 0.0 in
      for i = 0 to n - 1 do
        sum := !sum +. (g.package_g *. next.(i))
      done;
      !sum
    in
    let g_pkg_total = (float_of_int n *. g.package_g) +. (1.0 /. g.sink_r) in
    next.(n) <-
      (state.(n) +. (dt /. g.package_c *. (into_pkg +. (g.t_amb /. g.sink_r))))
      /. (1.0 +. (dt /. g.package_c *. g_pkg_total))
  done;
  next

let steady_state g ~powers =
  (* Large implicit steps converge straight to the fixed point. *)
  let state = ref (uniform_state g ~temp_k:g.t_amb) in
  for _ = 1 to 200 do
    state := step g ~state:!state ~powers ~dt:50.0
  done;
  !state

let simulate g ~state ~powers ~dt =
  assert (dt > 0.0);
  let samples = ref [ (0.0, Array.copy state) ] in
  let current = ref (Array.copy state) and now = ref 0.0 in
  Array.iter
    (fun (duration, p) ->
      assert (Array.length p = n_blocks g);
      let elapsed = ref 0.0 in
      while !elapsed +. dt <= duration do
        current := step g ~state:!current ~powers:p ~dt;
        elapsed := !elapsed +. dt;
        now := !now +. dt;
        samples := (!now, Array.copy !current) :: !samples
      done;
      let rest = duration -. !elapsed in
      if rest > 1e-9 then begin
        current := step g ~state:!current ~powers:p ~dt:rest;
        now := !now +. rest;
        samples := (!now, Array.copy !current) :: !samples
      end)
    powers;
  Array.of_list (List.rev !samples)

let hottest state =
  (* The package node (last) is never the hottest in practice, but exclude
     it for robustness. *)
  let n = Array.length state - 1 in
  let best = ref state.(0) in
  for i = 1 to n - 1 do
    if state.(i) > !best then best := state.(i)
  done;
  !best

let block_temp g state ~row ~col =
  if row < 0 || row >= g.rows || col < 0 || col >= g.cols then
    invalid_arg "Grid.block_temp: out of range";
  state.((row * g.cols) + col)
