"""One module per `hsnl` subcommand, each with run(cfg) -> stdout summary."""
