include Obs.Json (* the codec lives in obs, below every user *)
