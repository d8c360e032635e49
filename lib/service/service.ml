(** Library interface: the persistent certification service.

    [Service.Store] is the content-addressed certificate store,
    [Service.Server] the Unix-domain-socket daemon ([cec_tool serve]),
    [Service.Batch] the socketless batch mode, [Service.Engine] the
    solve step: one {!Cec_core.Parallel.check} call, whose loop owns
    budget escalation and the request deadline. *)

module Addr = Addr
module Key = Key
module Protocol = Protocol
module Wire = Wire
module Metrics = Metrics
module Store = Store
module Engine = Engine
module Server = Server
module Client = Client
module Batch = Batch
