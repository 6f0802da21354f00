type device_stress = { stage : int; pin : Network.pin; wl : float; stressed : bool }

(* Walk a pull-up network tracking whether the node above the current
   element is held at V_dd; collect per-PMOS stress flags. Returns
   (conducts, stressed devices). *)
let rec walk_bool net ~gate_low ~top_at_vdd =
  match net with
  | Network.Device { pin; mos } ->
    let low = gate_low pin in
    (low, [ (pin, mos.Device.Mosfet.wl, low && top_at_vdd) ])
  | Network.Series parts ->
    let conducts, acc, _ =
      List.fold_left
        (fun (all_conduct, acc, top) part ->
          let c, devs = walk_bool part ~gate_low ~top_at_vdd:top in
          (all_conduct && c, acc @ devs, top && c))
        (true, [], top_at_vdd) parts
    in
    (conducts, acc)
  | Network.Parallel parts ->
    List.fold_left
      (fun (any, acc) part ->
        let c, devs = walk_bool part ~gate_low ~top_at_vdd in
        (any || c, acc @ devs))
      (false, []) parts

let stressed_under_vector cell ~vector =
  let outs = Stdcell.stage_outputs cell vector in
  let value = function
    | Network.Input i -> vector.(i)
    | Network.Stage_out s -> outs.(s)
  in
  let gate_low pin = not (value pin) in
  List.concat
    (List.mapi
       (fun s (stage : Stdcell.stage) ->
         let _, devs = walk_bool stage.Stdcell.pull_up ~gate_low ~top_at_vdd:true in
         List.map (fun (pin, wl, stressed) -> { stage = s; pin; wl; stressed }) devs)
       (Array.to_list cell.Stdcell.stages))

let any_stressed cell ~vector =
  List.exists (fun d -> d.stressed) (stressed_under_vector cell ~vector)

type device_duty = { stage : int; pin : Network.pin; wl : float; duty : float }

let rec walk_prob net ~p_low ~p_top =
  match net with
  | Network.Device { pin; mos } ->
    let p = p_low pin in
    (p, [ (pin, mos.Device.Mosfet.wl, p *. p_top) ])
  | Network.Series parts ->
    let p_all, acc, _ =
      List.fold_left
        (fun (prod, acc, top) part ->
          let c, devs = walk_prob part ~p_low ~p_top:top in
          (prod *. c, acc @ devs, top *. c))
        (1.0, [], p_top) parts
    in
    (p_all, acc)
  | Network.Parallel parts ->
    let p_none, acc =
      List.fold_left
        (fun (none, acc) part ->
          let c, devs = walk_prob part ~p_low ~p_top in
          (none *. (1.0 -. c), acc @ devs))
        (1.0, []) parts
    in
    (1.0 -. p_none, acc)

(* Analytic signal probabilities can stray a few ulps outside [0, 1]
   (a node probability rounded above 1 makes [1 - p] negative), and the
   walk's products carry that into the duties, which the R-D model then
   rejects. A duty is a probability, so it is clamped where it is
   produced; a value already in range keeps its bits. *)
let clamp_duty d = if d < 0.0 then 0.0 else if d > 1.0 then 1.0 else d

let device_duties ~s devs =
  List.map (fun (pin, wl, duty) -> { stage = s; pin; wl; duty = clamp_duty duty }) devs

let stress_probabilities cell ~sp =
  let stage_sp = Stdcell.stage_output_probability cell ~sp in
  let prob_one = function
    | Network.Input i -> sp.(i)
    | Network.Stage_out s -> stage_sp.(s)
  in
  let p_low pin = 1.0 -. prob_one pin in
  List.concat
    (List.mapi
       (fun s (stage : Stdcell.stage) ->
         let _, devs = walk_prob stage.Stdcell.pull_up ~p_low ~p_top:1.0 in
         device_duties ~s devs)
       (Array.to_list cell.Stdcell.stages))

let stress_duties cell ~sp ~standby_vector =
  let active = stress_probabilities cell ~sp in
  let standby = stressed_under_vector cell ~vector:standby_vector in
  List.map2
    (fun (a : device_duty) (s : device_stress) ->
      assert (a.stage = s.stage && a.pin = s.pin);
      (a.duty, if s.stressed then 1.0 else 0.0))
    active standby

let stage_duty (active : device_duty list) ~stage =
  List.fold_left (fun acc (d : device_duty) -> if d.stage = stage then Float.max acc d.duty else acc)
    0.0 active

let stage_stressed (standby : device_stress list) ~stage =
  List.exists (fun (d : device_stress) -> d.stage = stage && d.stressed) standby

let worst_stage_duties cell ~sp ~standby_vector ~stage =
  let active = stress_probabilities cell ~sp in
  let standby = stressed_under_vector cell ~vector:standby_vector in
  (stage_duty active ~stage, if stage_stressed standby ~stage then 1.0 else 0.0)

(* PBTI mirror: reverse every series chain so the walk's "top" flag means
   "connected to ground", and flip the gate predicate to gate-high. *)
let rec reverse_series = function
  | Network.Device _ as d -> d
  | Network.Series parts -> Network.Series (List.rev_map reverse_series parts)
  | Network.Parallel parts -> Network.Parallel (List.map reverse_series parts)

let nmos_stressed_under_vector cell ~vector =
  let outs = Stdcell.stage_outputs cell vector in
  let value = function
    | Network.Input i -> vector.(i)
    | Network.Stage_out s -> outs.(s)
  in
  let gate_high pin = value pin in
  List.concat
    (List.mapi
       (fun s (stage : Stdcell.stage) ->
         let net = reverse_series stage.Stdcell.pull_down in
         let _, devs = walk_bool net ~gate_low:gate_high ~top_at_vdd:true in
         List.map (fun (pin, wl, stressed) -> { stage = s; pin; wl; stressed }) devs)
       (Array.to_list cell.Stdcell.stages))

let nmos_stress_probabilities cell ~sp =
  let stage_sp = Stdcell.stage_output_probability cell ~sp in
  let prob_one = function
    | Network.Input i -> sp.(i)
    | Network.Stage_out s -> stage_sp.(s)
  in
  let p_high pin = prob_one pin in
  List.concat
    (List.mapi
       (fun s (stage : Stdcell.stage) ->
         let net = reverse_series stage.Stdcell.pull_down in
         let _, devs = walk_prob net ~p_low:p_high ~p_top:1.0 in
         device_duties ~s devs)
       (Array.to_list cell.Stdcell.stages))

let worst_stage_duties_nmos cell ~sp ~standby_vector ~stage =
  let active = nmos_stress_probabilities cell ~sp in
  let standby = nmos_stressed_under_vector cell ~vector:standby_vector in
  (stage_duty active ~stage, if stage_stressed standby ~stage then 1.0 else 0.0)
