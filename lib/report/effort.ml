type level = Fast | Normal | Full

let options_for ~level ~gates =
  let sa_iterations, route_iterations =
    match level with
    | Fast -> (1500, 30)
    | Normal ->
        if gates <= 400 then (30000, 30)
        else if gates <= 1500 then (15000, 30)
        else if gates <= 3000 then (8000, 25)
        else (4000, 20)
    | Full ->
        if gates <= 400 then (80000, 40)
        else if gates <= 1500 then (40000, 40)
        else if gates <= 3000 then (20000, 30)
        else (10000, 25)
  in
  Tqec_core.Flow.scale_options ~sa_iterations ~route_iterations
    Tqec_core.Flow.default_options
