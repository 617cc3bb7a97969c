package attack

// InfectedWalks exposes the process-wide count of infected-set derivations to
// the external test that pins how often the daemon derives the set.
func InfectedWalks() int64 { return infectedWalks.Load() }

// CampaignBuilds exposes the process-wide count of NewCampaign calls to the
// external test that pins how often the daemon builds a campaign.
func CampaignBuilds() int64 { return campaignBuilds.Load() }
