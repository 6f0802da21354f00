let input_capacitance tech cell ~pin_index =
  Array.fold_left
    (fun acc (stage : Stdcell.stage) ->
      let net_cap net =
        List.fold_left
          (fun a (pin, mos) ->
            if pin = Network.Input pin_index then a +. Device.Mosfet.input_capacitance tech mos
            else a)
          0.0 (Network.devices net)
      in
      acc +. net_cap stage.Stdcell.pull_up +. net_cap stage.Stdcell.pull_down)
    0.0 cell.Stdcell.stages

let stage_out_capacitance tech cell ~stage =
  Array.fold_left
    (fun acc (s : Stdcell.stage) ->
      let net_cap net =
        List.fold_left
          (fun a (pin, mos) ->
            if pin = Network.Stage_out stage then a +. Device.Mosfet.input_capacitance tech mos
            else a)
          0.0 (Network.devices net)
      in
      acc +. net_cap s.Stdcell.pull_up +. net_cap s.Stdcell.pull_down)
    0.0 cell.Stdcell.stages

let is_output_stage cell ~stage = stage = Array.length cell.Stdcell.stages - 1

let stage_load tech cell ~stage ~external_load =
  let internal = stage_out_capacitance tech cell ~stage in
  if is_output_stage cell ~stage then internal +. external_load else internal

(* Conduction strength of a network for one on/off assignment:
   0 = blocked; series composes harmonically, parallel adds. *)
let rec strength net ~on =
  match net with
  | Network.Device { pin; mos } -> if on pin then mos.Device.Mosfet.wl else 0.0
  | Network.Series parts ->
    let inv_sum =
      List.fold_left
        (fun acc p ->
          match acc with
          | None -> None
          | Some s ->
            let st = strength p ~on in
            if st <= 0.0 then None else Some (s +. (1.0 /. st)))
        (Some 0.0) parts
    in
    (match inv_sum with None | Some 0.0 -> 0.0 | Some s -> 1.0 /. s)
  | Network.Parallel parts -> List.fold_left (fun acc p -> acc +. strength p ~on) 0.0 parts

let worst_strength net ~on_polarity =
  let pins = Array.of_list (Network.pins net) in
  let n = Array.length pins in
  let best = ref infinity in
  for idx = 0 to (1 lsl n) - 1 do
    let value pin =
      let rec find i = if pins.(i) = pin then i else find (i + 1) in
      (idx lsr find 0) land 1 = 1
    in
    let on pin =
      match on_polarity with Device.Mosfet.N -> value pin | Device.Mosfet.P -> not (value pin)
    in
    let s = strength net ~on in
    if s > 0.0 && s < !best then best := s
  done;
  if !best = infinity then invalid_arg "Cell_delay.worst_strength: network never conducts";
  !best

let stage_drive tech ~wl ~polarity ~temp_k ~dvth =
  let mos =
    match polarity with
    | Device.Mosfet.N -> Device.Mosfet.nmos ~dvth ~wl ()
    | Device.Mosfet.P -> Device.Mosfet.pmos ~dvth ~wl ()
  in
  Device.Mosfet.on_current tech mos ~temp_k

let stage_rise_fall tech (stage : Stdcell.stage) ~load ~temp_k ~dvth ~dvth_n =
  let vdd = tech.Device.Tech.vdd in
  let wl_up = worst_strength stage.Stdcell.pull_up ~on_polarity:Device.Mosfet.P in
  let wl_down = worst_strength stage.Stdcell.pull_down ~on_polarity:Device.Mosfet.N in
  let rise = load *. vdd /. stage_drive tech ~wl:wl_up ~polarity:Device.Mosfet.P ~temp_k ~dvth in
  let fall =
    load *. vdd /. stage_drive tech ~wl:wl_down ~polarity:Device.Mosfet.N ~temp_k ~dvth:dvth_n
  in
  (rise, fall)

let stage_delay tech stage ~load ~temp_k ~dvth ?(dvth_n = 0.0) () =
  let rise, fall = stage_rise_fall tech stage ~load ~temp_k ~dvth ~dvth_n in
  Float.max rise fall

let stage_deps (stage : Stdcell.stage) =
  List.filter_map
    (function Network.Stage_out s -> Some s | Network.Input _ -> None)
    (Network.pins stage.Stdcell.pull_down)

let delay tech cell ~load ~temp_k ~stage_dvth ?(stage_dvth_n = fun _ -> 0.0) () =
  let n = Array.length cell.Stdcell.stages in
  let arrival = Array.make n 0.0 in
  for s = 0 to n - 1 do
    let stage = cell.Stdcell.stages.(s) in
    let input_arrival = List.fold_left (fun acc d -> Float.max acc arrival.(d)) 0.0 (stage_deps stage) in
    let sl = stage_load tech cell ~stage:s ~external_load:load in
    arrival.(s) <-
      input_arrival
      +. stage_delay tech stage ~load:sl ~temp_k ~dvth:(stage_dvth s) ~dvth_n:(stage_dvth_n s) ()
  done;
  arrival.(n - 1)

let fresh_delay tech cell ~load ~temp_k = delay tech cell ~load ~temp_k ~stage_dvth:(fun _ -> 0.0) ()

let fo4_load tech cell = 4.0 *. input_capacitance tech cell ~pin_index:0

let delay_pair tech cell ~load ~temp_k ~stage_dvth ?(stage_dvth_n = fun _ -> 0.0)
    ~input_arrival () =
  let in_rise, in_fall = input_arrival in
  let n = Array.length cell.Stdcell.stages in
  let rise_arr = Array.make n 0.0 and fall_arr = Array.make n 0.0 in
  for s = 0 to n - 1 do
    let stage = cell.Stdcell.stages.(s) in
    (* A CMOS stage inverts: its output rise is launched by the latest
       falling input, its output fall by the latest rising input. *)
    let pin_pair = function
      | Network.Input _ -> (in_rise, in_fall)
      | Network.Stage_out d -> (rise_arr.(d), fall_arr.(d))
    in
    let latest_fall, latest_rise =
      List.fold_left
        (fun (f, r) pin ->
          let pr, pf = pin_pair pin in
          (Float.max f pf, Float.max r pr))
        (0.0, 0.0)
        (Network.pins stage.Stdcell.pull_down)
    in
    let sl = stage_load tech cell ~stage:s ~external_load:load in
    let d_rise, d_fall =
      stage_rise_fall tech stage ~load:sl ~temp_k ~dvth:(stage_dvth s) ~dvth_n:(stage_dvth_n s)
    in
    rise_arr.(s) <- latest_fall +. d_rise;
    fall_arr.(s) <- latest_rise +. d_fall
  done;
  (rise_arr.(n - 1), fall_arr.(n - 1))
