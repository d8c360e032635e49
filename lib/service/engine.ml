module Cec = Cec_core.Cec
module Parallel = Cec_core.Parallel

type config = Parallel.config

let default_config =
  { Parallel.default_config with Parallel.num_domains = 1; budget = Some 50_000 }

type result = {
  verdict : Cec.verdict;
  stats : Parallel.stats;
  rounds : int;
  timed_out : bool;
  degraded : string option;
}

let solve ?(clock = Unix.gettimeofday) ?deadline config golden revised =
  let report = Parallel.check ~clock ?deadline ~config golden revised in
  let stats = report.Parallel.stats in
  {
    verdict = report.Parallel.verdict;
    stats;
    rounds = stats.Parallel.rounds;
    timed_out = report.Parallel.timed_out;
    degraded = report.Parallel.degraded;
  }
