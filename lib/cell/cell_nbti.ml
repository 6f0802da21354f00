type polarity = [ `Pmos | `Nmos ]

type device_stress = { stage : int; pin : Network.pin; wl : float; stressed : bool }

(* PBTI mirror: reverse every series chain so the walk's "top" flag means
   "connected to ground". *)
let rec reverse_series = function
  | Network.Device _ as d -> d
  | Network.Series parts -> Network.Series (List.rev_map reverse_series parts)
  | Network.Parallel parts -> Network.Parallel (List.map reverse_series parts)

(* The one place a polarity is decided: the network of a stage it ages,
   walked from the rail its stress needs, and the gate level that turns
   a device of it on. NBTI ages the pull-up PMOS, on at gate 0, with
   sources toward V_dd; PBTI ages the pull-down NMOS, on at gate 1, with
   the series chains reversed so the walk starts at ground. *)
let aged polarity =
  match polarity with
  | `Pmos -> ((fun (stage : Stdcell.stage) -> stage.Stdcell.pull_up), false)
  | `Nmos -> ((fun (stage : Stdcell.stage) -> reverse_series stage.Stdcell.pull_down), true)

(* Walk an aged network tracking whether the node above the current
   element is held at its rail; collect per-device stress flags.
   Returns (conducts, stressed devices). *)
let rec walk_bool net ~on ~top_at_rail =
  match net with
  | Network.Device { pin; mos } ->
    let c = on pin in
    (c, [ (pin, mos.Device.Mosfet.wl, c && top_at_rail) ])
  | Network.Series parts ->
    let conducts, acc, _ =
      List.fold_left
        (fun (all_conduct, acc, top) part ->
          let c, devs = walk_bool part ~on ~top_at_rail:top in
          (all_conduct && c, acc @ devs, top && c))
        (true, [], top_at_rail) parts
    in
    (conducts, acc)
  | Network.Parallel parts ->
    List.fold_left
      (fun (any, acc) part ->
        let c, devs = walk_bool part ~on ~top_at_rail in
        (any || c, acc @ devs))
      (false, []) parts

let stressed_under_vector ?(polarity = `Pmos) cell ~vector =
  let outs = Stdcell.stage_outputs cell vector in
  let value = function
    | Network.Input i -> vector.(i)
    | Network.Stage_out s -> outs.(s)
  in
  let network, on_level = aged polarity in
  let on pin = value pin = on_level in
  List.concat
    (List.mapi
       (fun s stage ->
         let _, devs = walk_bool (network stage) ~on ~top_at_rail:true in
         List.map (fun (pin, wl, stressed) -> { stage = s; pin; wl; stressed }) devs)
       (Array.to_list cell.Stdcell.stages))

let any_stressed cell ~vector =
  List.exists (fun d -> d.stressed) (stressed_under_vector cell ~vector)

type device_duty = { stage : int; pin : Network.pin; wl : float; duty : float }

let rec walk_prob net ~p_on ~p_top =
  match net with
  | Network.Device { pin; mos } ->
    let p = p_on pin in
    (p, [ (pin, mos.Device.Mosfet.wl, p *. p_top) ])
  | Network.Series parts ->
    let p_all, acc, _ =
      List.fold_left
        (fun (prod, acc, top) part ->
          let c, devs = walk_prob part ~p_on ~p_top:top in
          (prod *. c, acc @ devs, top *. c))
        (1.0, [], p_top) parts
    in
    (p_all, acc)
  | Network.Parallel parts ->
    let p_none, acc =
      List.fold_left
        (fun (none, acc) part ->
          let c, devs = walk_prob part ~p_on ~p_top in
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

let stress_probabilities ?(polarity = `Pmos) cell ~sp =
  let stage_sp = Stdcell.stage_output_probability cell ~sp in
  let prob_one = function
    | Network.Input i -> sp.(i)
    | Network.Stage_out s -> stage_sp.(s)
  in
  let network, on_level = aged polarity in
  let p_on pin = if on_level then prob_one pin else 1.0 -. prob_one pin in
  List.concat
    (List.mapi
       (fun s stage ->
         let _, devs = walk_prob (network stage) ~p_on ~p_top:1.0 in
         List.map (fun (pin, wl, duty) -> { stage = s; pin; wl; duty = clamp_duty duty }) devs)
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

let worst_stage_duties ?polarity cell ~sp ~standby_vector ~stage =
  let active = stress_probabilities ?polarity cell ~sp in
  let standby = stressed_under_vector ?polarity cell ~vector:standby_vector in
  (stage_duty active ~stage, if stage_stressed standby ~stage then 1.0 else 0.0)
