type input = Regular of Quantum.Circuit.t | Commutable of Galg.Graph.t

type artifact = {
  circuit : Quantum.Circuit.t;
  routed : bool;
  pairs : Reuse.pair list option;
  reuses : int;
  width : int;
  slack : int;
  quality : Quality.t;
}

let of_pairs ?(quality = Quality.Exact) ~width circuit pairs =
  {
    circuit;
    routed = false;
    pairs = Some pairs;
    reuses = List.length pairs;
    width;
    slack = 0;
    quality;
  }
