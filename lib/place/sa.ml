module Rng = Tqec_prelude.Rng
module Trace = Tqec_obs.Trace

type params = {
  iterations : int;
  start_temp : float;
  end_temp : float;
}

let default_params = { iterations = 2000; start_temp = 1.0; end_temp = 0.001 }

type 'a stats = {
  best : 'a;
  best_cost : float;
  accepted : int;
  rejected : int;
  improved : int;
}

let run ?(trace = Trace.noop) ~rng ~init ~copy ~blit ~cost ~perturb ~undo params =
  let current = init in
  let current_cost = ref (cost current) in
  let best = copy current in
  let best_cost = ref !current_cost in
  let accepted = ref 0 and rejected = ref 0 and improved = ref 0 in
  let n = max 1 params.iterations in
  (* Geometric cooling: T_i = T0 * (T1/T0)^(i/n). *)
  let ratio = params.end_temp /. params.start_temp in
  for i = 0 to n - 1 do
    let temp = params.start_temp *. (ratio ** (float_of_int i /. float_of_int n)) in
    perturb rng current;
    let c = cost current in
    let delta = c -. !current_cost in
    let accept =
      if delta <= 0.0 then true
      else Rng.float rng 1.0 < exp (-.delta /. temp)
    in
    if accept then begin
      incr accepted;
      if delta < 0.0 then incr improved;
      current_cost := c;
      if c < !best_cost then begin
        blit ~src:current ~dst:best;
        best_cost := c
      end
    end
    else begin
      incr rejected;
      undo current
    end
  done;
  if Trace.enabled trace then begin
    Trace.incr ~n:n trace "sa_moves";
    Trace.incr ~n:!accepted trace "sa_accepted";
    Trace.incr ~n:!rejected trace "sa_rejected";
    Trace.incr ~n:!improved trace "sa_improved";
    Trace.gauge trace "sa_best_cost" !best_cost
  end;
  { best; best_cost = !best_cost; accepted = !accepted; rejected = !rejected;
    improved = !improved }
